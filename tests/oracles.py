"""Independent reference computations the tests compare against.

Everything here deliberately avoids the package's arithmetic: expression
values are computed structurally over Fractions, and the low-level rational
oracle works on raw integer pairs with its own normalization.  When a test
asserts against these, agreement means two separate routes reached the same
answer.
"""

import math

from fractions import Fraction

from cauchyreal.expressions import (Abs, Add, Div, FromBelow, Max, Min, Mul,
                                    Neg, RatLit, Sub)
from cauchyreal.partiality import TOP, countable_sup, never
from cauchyreal.rational import dyadic


def eval_exact(node):
    """The exact rational an expression denotes.

    FromBelow denotes its value (the approximations just never reach it), and
    division is exact division; a zero denominator here is a broken test
    input, not a library case.
    """
    if isinstance(node, RatLit):
        return node.value
    if isinstance(node, FromBelow):
        return node.value
    if isinstance(node, Neg):
        return -eval_exact(node.operand)
    if isinstance(node, Abs):
        return abs(eval_exact(node.operand))
    if isinstance(node, Add):
        return eval_exact(node.left) + eval_exact(node.right)
    if isinstance(node, Sub):
        return eval_exact(node.left) - eval_exact(node.right)
    if isinstance(node, Mul):
        return eval_exact(node.left) * eval_exact(node.right)
    if isinstance(node, Div):
        return eval_exact(node.left) / eval_exact(node.right)
    if isinstance(node, Max):
        return max(eval_exact(node.left), eval_exact(node.right))
    if isinstance(node, Min):
        return min(eval_exact(node.left), eval_exact(node.right))
    raise TypeError("not an expression node: %r" % (node,))


def norm_pair(n, d):
    """Lowest terms with positive denominator, by integer arithmetic only."""
    if d == 0:
        raise ZeroDivisionError
    if d < 0:
        n, d = -n, -d
    g = math.gcd(abs(n), d)
    if g:
        n //= g
        d //= g
    return n, d


def add_pair(a, b):
    return norm_pair(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def sub_pair(a, b):
    return norm_pair(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def mul_pair(a, b):
    return norm_pair(a[0] * b[0], a[1] * b[1])


def div_pair(a, b):
    return norm_pair(a[0] * b[1], a[1] * b[0])


def as_pair(q):
    return q.numerator, q.denominator


def first_k_with_margin(gap, factor):
    """The least k >= 0 with factor * 2**-k < gap, by exact search."""
    gap = Fraction(gap)
    k = 0
    while Fraction(factor, 2 ** k) >= gap:
        k += 1
    return k


def ceil_log2(q):
    """ceil(log2(q)) for positive rational q, by exact comparisons."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("need a positive rational")
    k = 0
    if q > 1:
        while Fraction(2) ** k < q:
            k += 1
        return k
    while Fraction(2) ** k > q:
        k -= 1
    # 2**k <= q; back off unless exactly on a power
    return k if Fraction(2) ** k == q else k + 1


def full_scan_lt(x, q):
    """x < q semi-decided by the stage rule of lt_rat_semidecide as a full
    prefix scan: at fuel n, every stage m <= n is polled until one fires."""
    def stage(k):
        d = dyadic(k)
        return TOP if x.approximate(d) < q - 2 * d else never()

    return countable_sup(stage)
