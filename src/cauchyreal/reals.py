"""Cauchy reals: the completion of the rationals, with field and lattice
structure, semi-decidable order, and apartness-witnessed inversion.

Each operation has two routes that denote the same real: a generic route,
and an exact fast path taken when the operands carry their rational value.
Only approximation bookkeeping differs between the routes, never the denoted
point.  Every operation but signed_sum hands its exact rule to _operation,
which takes the fast path when every operand is exact.  signed_sum folds
its exact terms into one itself, inexact terms beside them or not.

The generic route is the integer path of CompletionPoint: a request for
precision 2**-k is the integer k, the answer an integer m with
|x - m * 2**-k| < 2**-k.  The completion is the same for any dense subset of
the rationals, so these dyadic approximants m * 2**-k lose nothing, and they
keep every approximant's size at k bits plus the value's.  Each operation
states its precision split once, as data: its operands with their offsets
o, its exact rule, and an integer rule combine(k, m_1, ..., m_n).
completion._Operation.scaled asks the operands for k + o, and combine rounds
their integers to the grid 2**-k, which costs at most 2**-(k+1).  The
operands' share is therefore strictly below 2**-(k+1).  A sum of n terms,
each added or subtracted, is one such operation, signed_sum: it is
n-Lipschitz in the max metric, so with n <= 2**e each term is read at
k + e + 1 and their errors together stay under 2**-(k+1).  add and sub are
its two-term case, at k + 2.
Lipschitz constants, bounds and gaps are rounded to powers of two once, when
the node is built, so every rounding is a shift or one integer division.
A product's bounds are structural: each operation also declares a
magnitude exponent e with |x| <= 2**e, or its rule from its operands'
(the larger e plus the sum's own e for a signed sum, ea + eb for a
product, g for a reciprocal), and only leaves are read, once each, at
k = 0.  So building a product evaluates no operation, and a Horner chain's
bounds cost one step per product (completion._magnitude); bound(x) is
2**e.  scale is a product, so mul is the one place a product's split is
stated.

Order on the reals is semi-decidable, not decidable: a strict inequality can
be confirmed in finite fuel, equality can only stay pending forever.  The
comparison operations therefore return partial computations, and division
demands an up-front certificate that its denominator is apart from zero.

Algebraic identities the construction guarantees (the test suite checks each
by comparing approximations of both sides, which agree within twice the
requested precision, four times for the last one):

    add(x, y) = add(y, x)               add(add(x, y), z) = add(x, add(y, z))
    mul(x, y) = mul(y, x)               mul(mul(x, y), z) = mul(x, mul(y, z))
    mul(x, add(y, z)) = add(mul(x, y), mul(x, z))
    add(x, neg(x)) = 0                  mul(x, 1) = x
    join(x, meet(x, y)) = x             meet(x, join(x, y)) = x
    join(x, join(join(x, y), z)) = join(join(x, y), z)
    absolute(sub(mul(a, b), mul(a, c))) = mul(absolute(a), absolute(sub(b, c)))
"""

from fractions import Fraction

from .completion import CompletionPoint, _magnitude, _operation, eta
from .partiality import PENDING, TOP, monotone_sup, never, now
from .rational import QPos, Value, _coprime, ceil_log2, dyadic, round_div

CReal = CompletionPoint

_HALF = Fraction(1, 2)


def from_rat(q):
    """The real denoted by an exact rational, tagged for fast paths."""
    return eta(q if type(q) is Fraction else Fraction(q))


def from_below(q):
    """q as the limit of eps -> q - eps.

    The approximant at eps is limit's rule applied to that family, q - eps/2,
    so the point's own approximate never reports q exactly.  The integer
    path rounds the same approximant at 2**-(k+1), which is q - 2**-(k+2),
    to floor(q * 2**k + 1/4), without building the family; that is q * 2**k
    whenever q sits on the grid 2**-k, so scaled, and whatever is computed
    from it, may report q itself.  The point is one object, a _Below that
    keeps q's numerator and denominator, and only approximate makes
    Fractions of them, so an expression's below() leaf, made from its
    integer pair, makes none on the integer path.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    return _Below(q.numerator, q.denominator)


class _Below(CompletionPoint):
    """from_below(n/d), for integers n and d > 0 in lowest terms, as one
    object: its two rules are methods, so it holds no closure or cell.

    The method _approx stands in for the slot of the opaque procedure, so
    CompletionPoint.approximate calls it and memoizes its answers as for
    any opaque point.  scaled overrides the opaque point's rounding with
    the integer rule itself, unmemoized.  It is not an operation, so
    _magnitude reads it as a leaf.
    """

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.exact = self._memo = self._e = None

    def _approx(self, eps):
        return _coprime(self.n, self.d) - _HALF * eps

    def scaled(self, k):
        d = self.d
        return ((self.n << (k + 2)) + d) // (4 * d)


ZERO = from_rat(0)
ONE = from_rat(1)


def signed_sum(terms, signs):
    """The sum of terms, each added where its sign is true and subtracted
    where it is false.

    A sum of n terms is n-Lipschitz in the max metric.  With n <= 2**e, each
    term read at k+e+1 is strictly within 2**-(k+e+1), so the n errors stay
    strictly under 2**-(k+1); a subtracted term negates its integer, and the
    signed total S is rounded by e+1 bits, (S + 2**e) >> (e+1), which adds
    at most 2**-(k+1).  The exact terms fold into one exact term first, the
    last, signed as a rational, since round_div rounds halves up and so does
    not commute with negation.  With every term exact the sum is exact, and
    the empty sum is the exact 0.  terms and signs must have one length;
    otherwise it raises ValueError.
    """
    points = []
    minus = []
    constant = None
    for x, plus in zip(terms, signs, strict=True):
        q = x.exact
        if q is None:
            if not plus:
                minus.append(len(points))
            points.append(x)
        else:
            q = q if plus else -q
            constant = q if constant is None else constant + q
    if constant is not None:
        points.append(CompletionPoint(exact=constant))
        if len(points) == 1:
            return points[0]
    elif not points:
        return ZERO
    if len(points) == 2:
        x, y = points
        return _operation(None, _PAIRS[tuple(minus)], (x, 2), (y, 2),
                          magnitude=_PAIR_MAGNITUDE)
    e = (len(points) - 1).bit_length()
    o = e + 1
    half = 1 << e

    def combine(k, *ms):
        return (sum(ms) - 2 * sum(map(ms.__getitem__, minus)) + half) >> o

    return _operation(None, combine, *[(x, o) for x in points], magnitude=_wider(e))


def _wider(c):
    """The magnitude rule of a sum of at most 2**c terms: at most 2**c times
    as large as its largest term."""
    return lambda es: max(es) + c


# The rule at n = 2, e = 1, by the places of the subtracted terms: shared
# functions, so that add and sub build no closure, and combine with no *ms.
_PAIRS = {
    (): lambda k, m, n: (m + n + 2) >> 2,
    (1,): lambda k, m, n: (m - n + 2) >> 2,
    (0,): lambda k, m, n: (n - m + 2) >> 2,
    (0, 1): lambda k, m, n: (2 - m - n) >> 2,
}
_PAIR_MAGNITUDE = _wider(1)

# The integer rules of neg, join, meet and absolute, shared as _PAIRS are.
_NEGATED, _LARGER, _SMALLER, _ABSOLUTE = (
    lambda k, m: -m, lambda k, m, n: max(m, n), lambda k, m, n: min(m, n), lambda k, m: abs(m))


def add(x, y):
    """x + y, the signed sum of two terms: each operand at k+2, and
    (m + n + 2) >> 2."""
    return signed_sum((x, y), (True, True))


def sub(x, y):
    """x - y, the signed sum of two terms: each operand at k+2, and
    (m - n + 2) >> 2."""
    return signed_sum((x, y), (True, False))


def neg(x):
    """-x: the operand's answer at k, negated; no rounding."""
    return _operation(lambda a: -a, _NEGATED, (x, 0), magnitude=max)


def join(x, y):
    """Lattice join max(x, y): the operands at k.  max is non-expanding in
    the larger of the two errors, so no rounding is needed."""
    return _operation(max, _LARGER, (x, 0), (y, 0), magnitude=max)


def meet(x, y):
    """Lattice meet min(x, y): the operands at k, as for join."""
    return _operation(min, _SMALLER, (x, 0), (y, 0), magnitude=max)


def absolute(x):
    """|x|: the operand's answer at k, made absolute, with no rounding; one
    node where join(x, -x) is two."""
    return _operation(abs, _ABSOLUTE, (x, 0), magnitude=max)


def scale(q, x):
    """q * x for rational q: the product mul(from_rat(q), x), so mul states
    its precision split.  An exact x folds through mul's exact rule.
    """
    return mul(from_rat(q), x)


def bound(x):
    """A rational b >= |x|: 2**e for x's magnitude exponent e
    (completion._magnitude), a power of two, and strictly greater than |x|
    for a leaf.

    Reading e reads none of x's operations, only the leaves below it whose
    e is not yet known, each once, at k = 0.
    """
    return QPos(1 << _magnitude(x))


def mul(x, y, x_bound=None, y_bound=None):
    """x * y by bounded multiplication.

    With a bound on |y| rounded up to 2**ea and one on |x| rounded up to
    2**eb, a request for 2**-k multiplies x's answer u at k+ea+2 by y's
    answer v at k+eb+2 clipped into [-2**ea, 2**ea], and rounds the product
    to the grid 2**-k.  The clip costs nothing (y's values near y stay in
    range, and clipping toward the range never moves a value away from y)
    and keeps the error split valid no matter what x's answer does.  With
    U = u * 2**-(k+ea+2) and V = clip(v) * 2**-(k+eb+2):

        |U*V - x*y| <= |V| * |U - x| + |x| * |V - y|
                     <  2**ea * 2**-(k+ea+2) + 2**eb * 2**-(k+eb+2)
                     =  2**-(k+1),

    and rounding U*V to the grid adds at most 2**-(k+1).  The product's own
    magnitude exponent is ea + eb.

    x is listed, and _Operation.scaled reads operands in order, so x is
    read before y.  In a left-deep chain of products with one shared right
    operand, such as Horner's rule u*x + c, the innermost mul then asks the
    shared point for the finest precision first, and each outer mul's
    coarser request is served from its memo by a rounding shift.  The rule
    only orders the two operands of one product: a shared point whose first
    request is not its finest computes again for each finer one.

    The default exponents are the operands' magnitude exponents
    (completion._magnitude), so building a product evaluates no operation:
    only leaves are read, each once, by scaled(0), and a leaf keeps the
    exponent it read.  A read at k = 0 changes no later answer at k = 0, so
    which operand is walked first decides no bound, except where an opaque
    leaf's procedure reads another point.

    Custom bounds must genuinely bound the operands; any valid choice denotes
    the same real.
    """
    ea = _magnitude(y) if y_bound is None else _exponent(y_bound)
    eb = _magnitude(x) if x_bound is None else _exponent(x_bound)

    def combine(k, u, v):
        clip = 1 << (k + ea + eb + 2)
        return (u * max(-clip, min(clip, v)) + 2 * clip) >> (k + ea + eb + 4)

    return _operation(lambda a, b: a * b, combine, (x, ea + 2), (y, eb + 2), magnitude=ea + eb)


def _exponent(b):
    """The least e >= 0 with b <= 2**e, for a bound b > 0."""
    b = QPos(b)
    return ceil_log2(b.numerator, b.denominator)


class ApartnessWitness(Value):
    """A certificate that a real is apart from zero.

    gap is a positive rational with gap <= |x|, positive records the sign.
    Witnesses are trusted by consumers; a wrong witness is garbage in,
    garbage out.
    """

    __slots__ = ("positive", "gap")

    def __init__(self, positive, gap):
        if gap <= 0:
            raise ValueError("witness gap must be strictly positive, got %s" % (gap,))
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "gap", gap)


def recip_witnessed(x, witness):
    """1/x, given an apartness witness for x.

    Positive case: the gap is rounded down to 2**-g <= gap <= x once, and on
    [2**-g, +inf) the reciprocal is Lipschitz with constant 2**(2g).  A
    request for 2**-k reads x at j = k+2g+1, floors the answer at 2**-g (sound
    because x really does sit there, and never moving it away from x), and
    rounds 2**j / u to the grid 2**-k:

        |2**j/u - 1/x| <= 2**(2g) * |u * 2**-j - x|  <  2**-(k+1),

    plus at most 2**-(k+1) from the rounding.  The negative case mirrors
    through negation, 1/x = -(1/(-x)), in the same node: with s the sign,
    s * u is floored and the quotient multiplied by s.  |1/x| <= 1/gap
    <= 2**g, so g is the reciprocal's magnitude exponent.
    """
    gap = witness.gap
    g = ceil_log2(gap.denominator, gap.numerator)
    s = 1 if witness.positive else -1

    def combine(k, u):
        return s * round_div(1 << (2 * k + 2 * g + 1), max(1 << (k + g + 1), s * u))

    return _operation(lambda a: 1 / a, combine, (x, 2 * g + 1), magnitude=g)


def lt_rat_semidecide(x, q):
    """Semi-decide x < q for a rational q = n/d.

    Stage k reads x's integer answer m = x.scaled(k) and fires when
    (m + 2) * d < n * 2**k, that is when m * 2**-k sits below q by more than
    twice the stage precision.  As |x - m * 2**-k| < 2**-k, that certifies
    x < (m + 1) * 2**-k < q - 2**-k, and every true inequality has a stage
    fine enough to see its gap.  x at or above q never fires a stage.

    The stages are monotone: stage k + 1's answer m' has m' < 2m + 3, so
    when stage k fires, so does stage k + 1.  monotone_sup therefore polls
    O(log n) stages at fuel n and gives the full prefix scan's verdict in a
    single run; repeated runs stay sound and monotone, but may read a memo
    that a finer run in between refined.
    """
    q = Fraction(q)
    n, d = q.numerator, q.denominator

    def stage(k):
        if (x.scaled(k) + 2) * d < n << k:
            return TOP
        return never()

    return monotone_sup(stage)


# A sign verdict's two outcomes, shared: a poll that fires allocates none.
_SIGNS = (now(False), now(True))


def is_positive(x):
    """Semi-decide the sign: Done(True) iff 0 < x, Done(False) iff x < 0.

    Stage k reads x's integer answer m = x.scaled(k) and fires when
    |m| > 2, answering the sign of m: as |x - m * 2**-k| < 2**-k, that
    certifies |x| > 2 * 2**-k, so the gap 2**-k <= |x|, with that sign.  A
    zero real fires no stage; a real apart from zero fires every stage fine
    enough to dominate the approximation error.  Each stage certifies either
    side, so one scan gives the sign, and a zero real stays pending at every
    fuel.

    The stages are monotone: stage k + 1's answer m' has |m'| > 2|m| - 3,
    with the same sign, so when stage k fires, so does stage k + 1, with
    the same sign.  monotone_sup therefore answers the least firing stage
    in O(log n) polls at fuel n, and each fired poll returns one of two
    shared outcomes, so a poll allocates nothing.
    """
    def stage(k):
        m = x.scaled(k)
        if m > 2 or m < -2:
            return _SIGNS[m > 0]
        return never()

    return monotone_sup(stage)


def compare_partial(x, y):
    """Semi-decide order: Done(True) iff x < y, Done(False) iff y < x."""
    return is_positive(sub(y, x))


def find_apart_witness(x, fuel):
    """An apartness-from-zero certificate from the stages up to fuel; None
    if none fires.

    is_positive's scan run at fuel gives the sign, and its least firing
    stage k (the scan's _fired_at) the widest gap 2**-k; recip_witnessed's
    precision offsets grow with k.  The search makes this one witness, and
    the polls that led to it make none.
    """
    scan = is_positive(x)
    out = scan.run(fuel)
    return None if out is PENDING else ApartnessWitness(out.value, dyadic(scan._fired_at))
