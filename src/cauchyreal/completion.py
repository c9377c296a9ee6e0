"""Cauchy completion of a premetric space, represented operationally.

A point of the completion is a procedure mapping a requested precision eps to
a base element within eps of the point it denotes.  eta embeds base elements
as constant procedures, limit flattens a Cauchy approximation whose members
are themselves points, and Lipschitz maps on the base extend to the completion
by evaluating at rescaled precision.  That extension is the one recursion
principle of the completion monad: join is the extension of the identity,
and a map Lipschitz in each of two arguments extends one argument at a time.
Closeness of two completed points is no longer decidable; it is exposed as a
semi-decision built from countably many finite-precision tests.

Precision bookkeeping is the whole game here.  Of the constructions of points,
only limit and extend_lipschitz split their budget, each so that every
contribution to the final error stays strictly below its share; their
docstrings say where the halves go, and the constructions built from them
inherit the split.  Built-in reals (see reals) take a second, integer path
through the same points: a request for precision 2**-k is the integer k,
the answer an integer m with |x - m * 2**-k| < 2**-k, and splits become
offsets on k.  A point's kind is its class.  CompletionPoint is an exact
point or an opaque procedure; procedures given here, such as limit's, stay
opaque rational procedures, which the integer path reaches by rounding an
approximant at 2**-(k+1).  _Operation is a built-in operation, as data: its
operands, each with its offset, an integer rule that combines their
answers, and a magnitude exponent e with |x| <= 2**e or the rule that gives
it from its operands' (_magnitude), which bounds products without
evaluating their operands.  With no operands it is an integer leaf.  Its
scaled is the one place that reads operands, so evaluation takes one
Python frame per level of nesting, however many operands a level has.
reals._Below, the below() leaf, is the third class.
"""

import threading

from fractions import Fraction

from .partiality import TOP, countable_sup, fires, never
from .premetric import LipschitzFn, PremetricCarrier, RATIONALS
from .rational import QPos, ceil_log2, dyadic, dyadic_rat, round_div

_ONE = Fraction(1)

# The one lock of every point's memo store (see CompletionPoint).
_STORE = threading.Lock()


class CompletionPoint:
    """An element of the completion of a base premetric space.

    The underlying procedure must be a Cauchy approximation: values requested
    at eps and delta always lie strictly within eps + delta of each other, so
    the point it denotes is determined.  A point of this class is exact or
    opaque.  An exact point, built by eta, keeps its base element in `exact`
    and answers every request with it; operations use the tag to fast-path
    exact inputs.  An opaque point holds a procedure, approx, from eps to a
    base element within eps.  Its scaled(k), an integer m with
    |x - m * 2**-k| < 2**-k for a real x, rounds the approximant at
    2**-(k+1).

    Two subclasses hold the package's integer-path points.  _Operation, made
    by _operation, is a built-in operation on reals, or with no operands an
    integer leaf.  reals._Below, the below() leaf, is one object holding its
    numerator and denominator, with both rules as methods and no closure.
    The class default _operands = None marks every other point as a leaf.

    Points memoize the finest answer seen so far in one pair, _memo:
    (eps, value) for an opaque procedure, (k, m) for an operation.  A
    coarser request may be served from it; that is sound because a value
    within delta of the point is also within eps for eps >= delta.

    A real point also keeps its magnitude exponent in one slot, _e: an int
    e with |x| <= 2**e once known (see _magnitude), None for a leaf before
    its first read, or an operation's rule for e until then.

    Instances are safe to share between threads.  Reads take no lock:
    _memo is one slot holding an immutable pair, so a racing reader sees the
    old pair or the new one, and either is a valid answer.  One module lock,
    shared by every point's store, only makes the check and the store one
    step, so that a coarser answer never replaces a finer one.  It is never
    held while a procedure or an operand is read, so it cannot nest.  _e
    needs no lock: racing walks store ints, each a valid exponent, and a
    reader sees the rule or one of them.
    """

    __slots__ = ("_approx", "exact", "_memo", "_e")

    _operands = None

    def __init__(self, approx=None, exact=None):
        if approx is None and exact is None:
            raise TypeError("a point needs an approx procedure or an exact value")
        self._approx = approx
        self.exact = exact
        self._memo = None
        self._e = None

    @property
    def space(self):
        """The carrier the approximants live in, read off the one at eps=1."""
        return carrier(self.approximate(_ONE))

    @property
    def _best_eps(self):
        """The precision of the memoized answer, or None before the first."""
        memo = self._memo
        if memo is None:
            return None
        return memo[0] if self._approx is not None else dyadic(memo[0])

    def approximate(self, eps):
        """A base element within eps of the denoted point.  eps must be > 0.

        An integer point answers m * 2**-k for the least k >= 0 with
        2**-k <= eps, or its finer memoized answer.
        """
        if eps <= 0:
            raise ValueError("precision must be strictly positive, got %s" % (eps,))
        if self.exact is not None:
            return self.exact
        memo = self._memo
        if self._approx is None:
            k = ceil_log2(eps.denominator, eps.numerator)
            if memo is not None and memo[0] >= k:
                k, m = memo
            else:
                m = self.scaled(k)
            return dyadic_rat(m, k)
        if memo is not None and memo[0] <= eps:
            return memo[1]
        # Computed outside the lock: the procedure may recurse into other
        # points (or this one at a different precision).
        value = self._approx(eps)
        with _STORE:
            memo = self._memo
            if memo is None or eps < memo[0]:
                self._memo = (eps, value)
        return value

    def scaled(self, k):
        """An integer m with |x - m * 2**-k| < 2**-k, for an integer k >= 0.

        Exact points round their rational, and opaque points their
        approximant at 2**-(k+1): each error is at most 2**-(k+1), the
        approximant's strictly less.
        """
        value = self.exact
        if value is None:
            value = self.approximate(dyadic(k + 1))
        return round_div(value.numerator << k, value.denominator)

    def __repr__(self):
        if self.exact is not None:
            return "<CompletionPoint exact=%r>" % (self.exact,)
        return "<CompletionPoint>"


class _Operation(CompletionPoint):
    """A built-in operation on reals, declared as data (see _operation): its
    operands, each a (point, offset) pair, and an integer rule combine.

    scaled(k) asks the operands, in their listed order, for k + offset, and
    answers combine(k, m_1, ..., m_n) once they have returned.  Reading the
    left operand before the right is what serves Horner's rule p*x + c from
    one finest answer of x (see reals.mul).  With no operands it is an
    integer leaf, combine(k).  The answer is memoized as (k, m), and a
    memoized (j, m) with j > k is rounded by a shift, which moves it by at
    most 2**-(k+1) more.
    """

    __slots__ = ("_operands", "_combine")

    def __init__(self, combine, operands, magnitude):
        self._approx = self.exact = self._memo = None
        self._e = magnitude
        self._combine = combine
        self._operands = operands

    def scaled(self, k):
        memo = self._memo
        if memo is not None and memo[0] >= k:
            j, m = memo
            return m if j == k else (m + (1 << (j - k - 1))) >> (j - k)
        # Computed outside the lock, as in approximate().  The operands are
        # read here, in their listed order, and combined once they have
        # returned: one frame per level of nesting.
        operands = self._operands
        if len(operands) == 1:
            (x, i), = operands
            m = self._combine(k, x.scaled(k + i))
        elif len(operands) == 2:
            (x, i), (y, j) = operands
            m = self._combine(k, x.scaled(k + i), y.scaled(k + j))
        else:
            # A loop: up to Python 3.11 a comprehension would make k a
            # cell variable, which slows every read of it above.
            ms = []
            for x, i in operands:
                ms.append(x.scaled(k + i))
            m = self._combine(k, *ms)
        with _STORE:
            memo = self._memo
            if memo is None or k > memo[0]:
                self._memo = (k, m)
        return m


class CompletionSpace(PremetricCarrier):
    """Carrier for completed points, with a fuel-bounded boolean closeness.

    close() runs the closeness semi-decision for a fixed fuel, so True
    certifies closeness while False only means it was not confirmed within
    the budget.  That one-sided answer is the best a decidable interface can
    offer over a completion; harnesses that need the decidable shape (nested
    completions, the premetric checkers) accept the asymmetry.
    """

    def __init__(self, base, fuel=96):
        self.base = base
        self.fuel = fuel

    def close(self, eps, x, y):
        return fires(close_semidecide(eps, x, y), self.fuel)

    def __repr__(self):
        return "CompletionSpace(%r, fuel=%s)" % (self.base, self.fuel)


def carrier(value):
    """The carrier of a base element: the rationals for a rational, and the
    completion of the point's own carrier for a completed point."""
    if isinstance(value, Fraction):
        return RATIONALS
    if isinstance(value, CompletionPoint):
        return CompletionSpace(value.space)
    raise TypeError("no carrier for %r" % (value,))


def eta(value):
    """Embed a base element as the constant approximation procedure.

    Only rationals and completed points are base elements; anything else
    raises TypeError.
    """
    carrier(value)
    return CompletionPoint(exact=value)


def _operation(exact, combine, *operands, magnitude=None):
    """The point of a built-in operation, declared as data.

    operands are (point, offset) pairs, any number, and none for an integer
    leaf: scaled(k) asks each point, in the listed order, for k + offset,
    and answers combine(k, m_1, ..., m_n) of their integers.  If exact is given and
    every operand is exact, the point is exact instead, with
    exact(x_1, ..., x_n) of their rationals: every operation of reals but
    signed_sum, which folds its exact terms itself, gives its exact rule
    here and has no fast path of its own.  magnitude is the point's
    exponent e (see _magnitude), or a rule giving it from the list of the
    operands' exponents; without one the point is read like a leaf.
    """
    if exact is not None:
        for x, _ in operands:
            if x.exact is None:
                break
        else:
            return CompletionPoint(exact=exact(*[x.exact for x, _ in operands]))
    return _Operation(combine, operands, magnitude)


def _magnitude(x):
    """An integer e >= 0 with |x| <= 2**e, for a real point x, kept in x._e.

    A leaf, or an operation that declared no rule, is read once on the
    integer path: with m = x.scaled(0), |x| < |m| + 1, so e is the least
    with |m| + 2 <= 2**e.  An operation applies its rule to its operands'
    exponents.  The walk is iterative, in post-order, and stops at points
    whose e is known, so it evaluates no operation that declared a rule.
    """
    stack = [x]
    while stack:
        point = stack[-1]
        rule = point._e
        if type(rule) is int:
            stack.pop()
        elif rule is None:
            point._e = (abs(point.scaled(0)) + 1).bit_length()
            stack.pop()
        else:
            pending = [y for y, _ in point._operands if type(y._e) is not int]
            if pending:
                stack += pending
            else:
                point._e = rule([y._e for y, _ in point._operands])
                stack.pop()
    return x._e


def limit(x):
    """The point a Cauchy approximation by points converges to.

    A request for eps asks the eps/2 member for an eps/2 approximation: the
    member is within eps/2 of the limit and the value within eps/2 of the
    member.  The caller is responsible for x actually being Cauchy.
    """
    return CompletionPoint(lambda eps: x(eps / 2).approximate(eps / 2))


def close_semidecide(eps, x, y):
    """Semi-decide that x and y are eps-close.

    Stage k compares the points at dyadic precision d = 2**-k and accepts
    when the base distance leaves room for both approximation errors:
    close(eps - 2d, x(d), y(d)).  Acceptance at any stage certifies
    closeness; every strictly eps-close pair has a stage fine enough to see
    the slack, and a pair at distance exactly eps or more never fires.
    The stages are not monotone, so the scan is countable_sup's full prefix
    scan: monotone_sup's scan of the prefix joins, which makes each stage
    once (see countable_sup for why).
    """
    space = x.space

    def stage(k):
        d = dyadic(k)
        if 2 * d >= eps:
            return never()
        if space.close(eps - 2 * d, x.approximate(d), y.approximate(d)):
            return TOP
        return never()

    return countable_sup(stage)


def extend_lipschitz(f):
    """Extend a Lipschitz map out of the base space along the completion.

    f is a LipschitzFn from base elements to completed points, with constant
    L.  The extension at x requests eps by evaluating f at x's eps/(2L)
    approximant (the image is then within eps/2 of the true image) and asking
    that image point for eps/2.  Exact-tagged points short-circuit to f
    itself, so the extension agrees with f on embedded base elements on the
    nose.
    """
    constant = QPos(f.constant)

    def extension(x):
        if x.exact is not None:
            return f(x.exact)

        def approx(eps):
            return f(x.approximate(eps / (2 * constant))).approximate(eps / 2)

        return CompletionPoint(approx)

    return LipschitzFn(extension, constant)


def extend_lipschitz2(f, l1, l2):
    """Extend a binary Lipschitz map along the completion, one argument at a
    time.

    f takes two base elements to a completed point; l1 bounds its expansion
    in the first argument, l2 in the second.  The extension is curried: x is
    extended over a -> (the extension of b -> f(a, b), constant l2, at y),
    an l1-Lipschitz map.  A request for eps so asks x at eps/(2 l1), y at
    eps/(4 l2) and f's point at eps/4.  Exact tags on both arguments
    short-circuit to f.
    """
    l1, l2 = QPos(l1), QPos(l2)

    def extension(x, y):
        def at_y(a):
            return extend_lipschitz(LipschitzFn(lambda b: f(a, b), l2))(y)

        return extend_lipschitz(LipschitzFn(at_y, l1))(x)

    return extension


def monad_map(f):
    """Functorial action: lift a Lipschitz base-to-base map to the completion.

    Equal to the extension of eta composed with f.
    """
    return extend_lipschitz(LipschitzFn(lambda t: eta(f(t)), f.constant))


def monad_join(x):
    """Flatten a completed point whose base elements are themselves points.

    The extension of the identity, a 1-Lipschitz map from points to points:
    a request for eps asks the outer procedure for an eps/2 point, then that
    point for eps/2, and joining an exact tag returns the inner point itself.
    """
    return extend_lipschitz(LipschitzFn(lambda point: point, _ONE))(x)


def lim_pointwise(s):
    """Limit of a Cauchy family of functions into a completion, pointwise.

    s maps a precision to a function; the result maps a to the limit of the
    family's values at a.  If every member is Lipschitz with a common
    constant, so is the result.
    """
    return lambda a: limit(lambda eps: s(eps)(a))
