"""Cauchy completion of a premetric space, represented operationally.

A point of the completion is a procedure mapping a requested precision eps to
a base element within eps of the point it denotes.  eta embeds base elements
as constant procedures, limit flattens a Cauchy approximation whose members
are themselves points, and Lipschitz maps on the base extend to the completion
by evaluating at rescaled precision.  Closeness of two completed points is no
longer decidable; it is exposed as a semi-decision built from countably many
finite-precision tests.

Precision bookkeeping is the whole game here.  Every evaluation rule splits
its budget so that each contribution to the final error stays strictly below
its share; the comments on each rule say where the halves go.  Built-in reals
(see reals) take a second, integer path through the same points: a request
for precision 2**-k is the integer k, the answer an integer m with
|x - m * 2**-k| < 2**-k, and splits become offsets on k.  Procedures given
here, such as limit's, stay opaque rational procedures; the integer path
reaches them by rounding an approximant at 2**-(k+1).
"""

import threading

from fractions import Fraction

from .partiality import TOP, countable_sup, fires, never
from .premetric import LipschitzFn, PremetricCarrier, RATIONALS
from .rational import QPos, ceil_log2, dyadic, dyadic_rat, round_div

_ONE = Fraction(1)


class CompletionPoint:
    """An element of the completion of a base premetric space.

    The underlying procedure must be a Cauchy approximation: values requested
    at eps and delta always lie strictly within eps + delta of each other, so
    the point it denotes is determined.  A point has an opaque procedure
    (approx, eps -> base element within eps), an integer one (scaled,
    k -> integer m with |x - m * 2**-k| < 2**-k, for a real x), or both.

    Both routes memoize the finest answer seen so far in one pair, _memo:
    (eps, value) for an opaque procedure, (k, m) for an integer one.  A
    coarser request may be served from it; that is sound because a value
    within delta of the point is also within eps for eps >= delta.  A point
    with both procedures answers approximate() with the opaque one and
    scaled() with the integer one, which it does not memoize.

    Points carrying an exact base element (built by eta) keep it in `exact`
    and answer every request with it; operations use the tag to fast-path
    exact inputs.

    Instances are safe to share between threads.  Reads take no lock:
    _memo is one slot holding an immutable pair, so a racing reader sees the
    old pair or the new one, and either is a valid answer.  The lock only
    makes the check and the store one step, so that a coarser answer never
    replaces a finer one.
    """

    __slots__ = ("_approx", "_scaled", "exact", "_lock", "_memo")

    def __init__(self, approx=None, exact=None, scaled=None):
        self._approx = approx
        self._scaled = scaled
        self.exact = exact
        self._lock = threading.Lock()
        self._memo = None

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
        with self._lock:
            memo = self._memo
            if memo is None or eps < memo[0]:
                self._memo = (eps, value)
        return value

    def scaled(self, k):
        """An integer m with |x - m * 2**-k| < 2**-k, for an integer k >= 0.

        Exact points round their rational, and opaque points their
        approximant at 2**-(k+1): each error is at most 2**-(k+1), the
        approximant's strictly less.  A memoized (j, m) with j > k is rounded
        by a shift, which moves it by at most 2**-(k+1) more.
        """
        exact = self.exact
        if exact is not None:
            return round_div(exact.numerator << k, exact.denominator)
        if self._approx is not None:
            if self._scaled is not None:
                return self._scaled(k)
            value = self.approximate(dyadic(k + 1))
            return round_div(value.numerator << k, value.denominator)
        memo = self._memo
        if memo is not None and memo[0] >= k:
            j, m = memo
            return m if j == k else (m + (1 << (j - k - 1))) >> (j - k)
        # Computed outside the lock, as in approximate().
        m = self._scaled(k)
        with self._lock:
            memo = self._memo
            if memo is None or k > memo[0]:
                self._memo = (k, m)
        return m

    def __repr__(self):
        if self.exact is not None:
            return "<CompletionPoint exact=%r>" % (self.exact,)
        return "<CompletionPoint>"


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
    return CompletionPoint(lambda eps: value, exact=value)


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
    The scan is countable_sup's full one, for the reason given there.
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
    """Extend a binary Lipschitz map along the completion in both arguments.

    f takes two base elements to a completed point; l1 bounds its expansion
    in the first argument, l2 in the second.  A request for eps gives each
    argument a quarter of the budget scaled by the other argument's constant
    (first at eps/(4 l2), second at eps/(4 l1)) and the image point the
    remaining half.  Exact tags on both arguments short-circuit to f.
    """
    l1 = QPos(l1)
    l2 = QPos(l2)

    def extension(x, y):
        if x.exact is not None and y.exact is not None:
            return f(x.exact, y.exact)

        def approx(eps):
            return f(x.approximate(eps / (4 * l2)),
                     y.approximate(eps / (4 * l1))).approximate(eps / 2)

        return CompletionPoint(approx)

    return extension


def monad_map(f):
    """Functorial action: lift a Lipschitz base-to-base map to the completion.

    Equal to the extension of eta composed with f.
    """
    return extend_lipschitz(LipschitzFn(lambda t: eta(f(t)), f.constant))


def monad_join(x):
    """Flatten a completed point whose base elements are themselves points.

    A request for eps asks the outer procedure for an eps/2 point, then that
    point for eps/2.  Together with eta this is the extension of the
    identity; joining an exact tag returns the inner point unchanged.
    """
    if x.exact is not None:
        return x.exact
    return CompletionPoint(lambda eps: x.approximate(eps / 2).approximate(eps / 2))


def lim_pointwise(s):
    """Limit of a Cauchy family of functions into a completion, pointwise.

    s maps a precision to a function; the result maps a to the limit of the
    family's values at a.  If every member is Lipschitz with a common
    constant, so is the result.
    """
    return lambda a: limit(lambda eps: s(eps)(a))
