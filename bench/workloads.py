"""Seeded input generators for the three benchmark workloads.

Expressions are built here as plain tuples, rendered to the CLI grammar, and
evaluated exactly over Fractions by this module alone.  Nothing here imports
cauchyreal, so the expected answers share no code with the program under test.

Tree nodes:

    ("lit", q)            a rational literal, q >= 0
    ("below", q)          below(q), q >= 0
    ("sum", [t, ...])     t1 + t2 + ... unparenthesised; the parser makes it left-deep
    (op, left, right)     op in + - * / max min, fully parenthesised
"""

import random

from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("enclose_sweep", "wide_lowprec", "semidecide")

# The reference kernel (reference.py) each workload's times are measured
# against: the one that does the work dominating the workload.
REFERENCE_KERNEL = {
    "enclose_sweep": "bigint",
    "wide_lowprec": "fraction",
    "semidecide": "fraction",
}

# Each workload crosses a fixed grid of input classes and sizes with seeded
# contents, so every seed draws the same mix of costs and the figures of
# different seeds stay comparable.  Where the classes' costs form clusters,
# their shares are set so that the p50 and p90 ranks fall inside a cluster,
# not in the gap between two, where the machine's noise moves them most.
SWEEP_PRECISIONS = (64, 1000, 4000, 16000)
SWEEP_VARIANTS = 8
WIDE_PREC = 64
WIDE_LEAVES = (100, 150, 200, 250, 300, 350, 400, 450)
WIDE_VARIANTS = 4
PRODUCT_FACTORS = (2, 3)
SEMI_VARIANTS = 16
CLOSE_BITS = (20, 40, 60, 80, 100, 120)
FUEL = 256


@dataclass(frozen=True)
class Op:
    """One CLI call and the exact real values its answer is checked against.

    kind is eval, sign or compare; texts holds its expression arguments and
    values the exact value of each; label names the input class for failure
    reports.
    """

    kind: str
    texts: tuple
    values: tuple
    label: str
    prec: int = 0
    fuel: int = 0

    @property
    def argv(self):
        if self.kind == "eval":
            return ("eval",) + self.texts + ("--prec", str(self.prec))
        return (self.kind, "--fuel", str(self.fuel), "--") + self.texts


def render(node):
    tag = node[0]
    if tag == "lit":
        return _rat_text(node[1])
    if tag == "below":
        return "below(%s)" % _rat_text(node[1])
    if tag == "sum":
        return " + ".join(render(t) for t in node[1])
    if tag in ("max", "min"):
        return "%s(%s, %s)" % (tag, render(node[1]), render(node[2]))
    return "(%s %s %s)" % (_operand_text(node[1]), tag, _operand_text(node[2]))


def _operand_text(node):
    # A flat sum under a binary operator needs its own parentheses.
    text = render(node)
    return "(%s)" % text if node[0] == "sum" else text


def _rat_text(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def exact_value(node):
    """The rational a tree denotes; below(q) denotes q."""
    tag = node[0]
    if tag in ("lit", "below"):
        return node[1]
    if tag == "sum":
        return sum((exact_value(t) for t in node[1]), Fraction(0))
    left, right = exact_value(node[1]), exact_value(node[2])
    if tag == "+":
        return left + right
    if tag == "-":
        return left - right
    if tag == "*":
        return left * right
    if tag == "/":
        return left / right
    if tag == "max":
        return max(left, right)
    if tag == "min":
        return min(left, right)
    raise ValueError("unknown node %r" % (tag,))


def _rat(rng, lo=1):
    return Fraction(rng.randint(lo, 63), rng.randint(1, 7))


def _horner(lead, coeffs, x):
    node = ("lit", Fraction(lead))
    for c in coeffs:
        op = "+" if c >= 0 else "-"
        node = (op, ("*", node, x), ("lit", Fraction(abs(c))))
    return node


def _eval_op(node, prec, label):
    return Op("eval", (render(node),), (exact_value(node),), label, prec=prec)


def enclose_sweep(rng):
    """Criterion 12's degree-8 Horner polynomial, seeded, at exact, below()
    and reciprocal-of-below() points, swept over the precisions."""
    ops = []
    for variant in range(SWEEP_VARIANTS):
        lead = rng.choice([-1, 1]) * rng.randint(1, 20)
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(8)]
        q = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        c = rng.randint(2, 9)
        points = [
            ("below", ("below", q)),
            ("recip", ("/", ("lit", Fraction(1)), ("+", ("lit", Fraction(c)),
                                                    ("below", Fraction(0))))),
        ]
        # The exact class, cheapest by far, gets half the variants.
        if variant % 2 == 0:
            points.append(("exact", ("lit", q)))
        for cls, x in points:
            for prec in SWEEP_PRECISIONS:
                ops.append(_eval_op(_horner(lead, coeffs, x), prec,
                                    "%s.k%d" % (cls, prec)))
    return ops


def _leaf(rng):
    q = _rat(rng)
    return ("below", q) if rng.random() < 0.8 else ("lit", q)


def _below_sum(rng, terms):
    return ("sum", [("below", _rat(rng)) for _ in range(terms)])


def _random_tree(rng, leaves):
    if leaves == 1:
        return _leaf(rng)
    split = rng.randint(1, leaves - 1)
    op = rng.choice(("+", "-", "max", "min"))
    return (op, _random_tree(rng, split), _random_tree(rng, leaves - split))


def _repeated_product(rng, leaves, factors):
    shared = _below_sum(rng, max(1, leaves // factors))
    node = shared
    for _ in range(factors - 1):
        node = ("*", node, shared)
    return node


# Sums this long overflow the interpreter's recursion limit in the current
# kernel.  One op in 25 keeps the known defect visible without moving the
# p50 or p90 ranks once it is fixed.
LONG_SUM_TERMS = (520, 600)


def wide_lowprec(rng):
    """Many-leaf expressions at 2**-64: left-deep below() sums, random
    + - max min trees, and products of one repeated subtree."""
    ops = []
    for variant in range(WIDE_VARIANTS):
        factors = PRODUCT_FACTORS[variant % len(PRODUCT_FACTORS)]
        for leaves in WIDE_LEAVES:
            ops.append(_eval_op(_below_sum(rng, leaves), WIDE_PREC, "sum"))
            ops.append(_eval_op(_random_tree(rng, leaves), WIDE_PREC, "tree"))
            ops.append(_eval_op(_repeated_product(rng, leaves, factors), WIDE_PREC,
                                "product"))
        ops.append(_eval_op(_below_sum(rng, rng.randint(*LONG_SUM_TERMS)), WIDE_PREC,
                            "long_sum"))
    return ops


def _sign_op(node, label):
    return Op("sign", (render(node),), (exact_value(node),), label, fuel=FUEL)


def _compare_op(a, b, label):
    return Op("compare", (render(a), render(b)), (exact_value(a), exact_value(b)), label,
              fuel=FUEL)


def _near_zero(rng, distance, positive):
    """below(a) - r at +distance or r - below(a) at -distance from zero."""
    a = _rat(rng, lo=7)
    r = ("lit", a - distance)
    if positive:
        return ("-", ("below", a), r)
    return ("-", r, ("below", a))


def semidecide(rng):
    """Sign and compare verdicts that exercise the stage scans, the memo and
    the witness search: near-zero signs, an undecidable equal compare, a
    compare of close distinct values, and a division needing a deep witness.

    A verdict scans the positive side first, so its cost depends on the
    sign; half of every class is positive (or an lt), half negative."""
    ops = []
    for variant in range(SEMI_VARIANTS):
        positive = variant % 2 == 0
        for bits in (8, 64, 200):
            ops.append(_sign_op(_near_zero(rng, Fraction(1, 2 ** bits), positive),
                                "sign.2^-%d" % bits))
        # The equal compare, the memo-heavy case, gets two ops per variant.
        for _ in range(2):
            a = ("lit", _rat(rng))
            ops.append(_compare_op(a, ("below", a[1]), "compare.equal"))
        b = ("below", _rat(rng))
        gap = Fraction(1, 2 ** CLOSE_BITS[variant % len(CLOSE_BITS)])
        if variant // 2 % 2 == 0:
            ops.append(_compare_op(b, ("lit", b[1] + (gap if positive else -gap)),
                                   "compare.close"))
        else:
            ops.append(_compare_op(("lit", b[1] - (gap if positive else -gap)), b,
                                   "compare.close"))
        # A denominator 2**-38 from zero: its witness fires near stage 40.
        den = _near_zero(rng, Fraction(1, 2 ** 38), positive)
        ops.append(_sign_op(("/", ("lit", _rat(rng)), den), "sign.witness"))
    return ops


GENERATORS = {
    "enclose_sweep": enclose_sweep,
    "wide_lowprec": wide_lowprec,
    "semidecide": semidecide,
}


def generate(workload, seed):
    """The op list for one cycle of a workload; the same seed gives the same ops."""
    rng = random.Random("%s:%d" % (workload, seed))
    ops = GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
