"""Cauchy reals: the completion of the rationals, with field and lattice
structure, semi-decidable order, and apartness-witnessed inversion.

Each operation has two routes that denote the same real: a generic route by
Lipschitz extension of the rational operation, and an exact fast path taken
when the operands carry their rational value.  Only approximation bookkeeping
differs between the routes, never the denoted point.

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

from dataclasses import dataclass
from fractions import Fraction

from .completion import CompletionPoint, eta, extend_lipschitz, extend_lipschitz2
from .partiality import TOP, countable_sup, interleave, never
from .premetric import LipschitzFn
from .rational import QPos, dyadic

CReal = CompletionPoint

_ONE = Fraction(1)
_ONE_POS = QPos(1)


def from_rat(q):
    """The real denoted by an exact rational, tagged for fast paths."""
    return eta(Fraction(q))


ZERO = from_rat(0)
ONE = from_rat(1)

# Addition, join and meet are non-expanding in each argument; negation is
# non-expanding outright.
_ADD = extend_lipschitz2(lambda q, r: eta(q + r), _ONE_POS, _ONE_POS)
_JOIN = extend_lipschitz2(lambda q, r: eta(max(q, r)), _ONE_POS, _ONE_POS)
_MEET = extend_lipschitz2(lambda q, r: eta(min(q, r)), _ONE_POS, _ONE_POS)
_NEG = extend_lipschitz(LipschitzFn(lambda q: eta(-q), _ONE_POS))


def add(x, y):
    """x + y."""
    return _ADD(x, y)


def neg(x):
    """-x."""
    return _NEG(x)


def sub(x, y):
    """x - y, as x + (-y)."""
    return add(x, neg(y))


def join(x, y):
    """Lattice join: max(x, y)."""
    return _JOIN(x, y)


def meet(x, y):
    """Lattice meet: min(x, y)."""
    return _MEET(x, y)


def absolute(x):
    """|x|, as join(x, -x)."""
    return join(x, neg(x))


def scale(q, x):
    """q * x for rational q, by unary extension.

    |q| + 1 is a valid Lipschitz constant for every q, including 0.
    """
    q = Fraction(q)
    ext = extend_lipschitz(LipschitzFn(lambda r: eta(q * r), QPos(abs(q) + 1)))
    return ext(x)


def clamp(x, lo, hi):
    """x clipped into [lo, hi]: join(lo, meet(x, hi)).  Needs lo <= hi."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty clamp interval [%s, %s]" % (lo, hi))
    return join(from_rat(lo), meet(x, from_rat(hi)))


def bound(x):
    """A rational strictly greater than |x|: |x(1)| + 2.

    The approximant is within 1 of x, so |x| < |x(1)| + 1 < the bound, with a
    unit of slack to spare.
    """
    return QPos(abs(x.approximate(_ONE)) + 2)


def _clip(v, a):
    if v > a:
        return a
    if v < -a:
        return -a
    return v


def mul(x, y, x_bound=None, y_bound=None):
    """x * y by bounded multiplication.

    With a a bound on |y| and b a bound on |x|, a request for eps multiplies
    x's eps/(2a) approximant by y's eps/(2b) approximant clipped into
    [-a, a].  The clip costs nothing (y's values near y stay in range, and
    clipping toward the range never moves a value away from y) and keeps the
    error split valid no matter what x's approximant does:

        |u * clip(v) - x*y| <= |clip(v)| * |u - x| + |x| * |clip(v) - y|
                             <  a * eps/(2a)      + b * eps/(2b)  =  eps.

    Custom bounds must genuinely bound the operands; any valid choice denotes
    the same real.
    """
    if x.exact is not None and y.exact is not None:
        return from_rat(x.exact * y.exact)
    a = QPos(y_bound) if y_bound is not None else bound(y)
    b = QPos(x_bound) if x_bound is not None else bound(x)

    def approx(eps):
        return x.approximate(eps / (2 * a)) * _clip(y.approximate(eps / (2 * b)), a)

    return CompletionPoint(approx)


@dataclass(frozen=True)
class ApartnessWitness:
    """A certificate that a real is apart from zero.

    gap is a positive rational with gap <= |x|, positive records the sign.
    Witnesses are trusted by consumers; a wrong witness is garbage in,
    garbage out.
    """

    positive: bool
    gap: Fraction

    def __post_init__(self):
        if self.gap <= 0:
            raise ValueError("witness gap must be strictly positive, got %s" % (self.gap,))


def recip_witnessed(x, witness):
    """1/x, given an apartness witness for x.

    Positive case: on the witnessed region [gap, +inf) the reciprocal is
    Lipschitz with constant gap**-2, so a request for eps evaluates x at
    eps * gap**2 and floors the approximant at gap before inverting; the
    floor is sound because x really does sit at or above gap.  The negative
    case mirrors through negation: 1/x = -(1/(-x)).
    """
    gap = QPos(witness.gap)
    if x.exact is not None:
        return from_rat(1 / x.exact)
    if not witness.positive:
        return neg(recip_witnessed(neg(x), ApartnessWitness(True, gap)))

    def approx(eps):
        return 1 / max(gap, x.approximate(eps * gap * gap))

    return CompletionPoint(approx)


def lt_rat_semidecide(x, q):
    """Semi-decide x < q for a rational q.

    Stage k fires when x's 2**-k approximant sits below q by more than twice
    the stage precision; the approximant being within 2**-k of x makes that a
    certificate, and every true inequality has a stage fine enough to see its
    gap.  x at or above q never fires a stage.
    """
    q = Fraction(q)

    def stage(k):
        d = dyadic(k)
        if x.approximate(d) < q - 2 * d:
            return TOP
        return never()

    return countable_sup(stage)


def is_positive(x):
    """Semi-decide the sign: Done(True) iff 0 < x, Done(False) iff x < 0.

    Interleaves the two strict comparisons, which are disjoint, so the
    verdict is unambiguous; a zero real stays pending at every fuel.
    """
    return interleave(lt_rat_semidecide(neg(x), 0), lt_rat_semidecide(x, 0))


def compare_partial(x, y):
    """Semi-decide order: Done(True) iff x < y, Done(False) iff y < x."""
    return is_positive(sub(y, x))


def find_apart_witness(x, fuel):
    """Scan for an apartness-from-zero certificate; None if none fires in fuel.

    Stage k accepts when |x(2**-k)| > 2 * 2**-k, which certifies
    2**-k <= |x| and the approximant's sign.  A zero real passes no stage, so
    the scan runs out of fuel; a real apart from zero passes every stage fine
    enough to dominate the approximation error.
    """
    for k in range(fuel + 1):
        d = dyadic(k)
        a = x.approximate(d)
        if abs(a) > 2 * d:
            return ApartnessWitness(a > 0, d)
    return None
