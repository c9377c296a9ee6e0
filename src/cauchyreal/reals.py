"""Cauchy reals: the completion of the rationals, with field and lattice
structure, semi-decidable order, and apartness-witnessed inversion.

Each operation has two routes that denote the same real: a generic route,
and an exact fast path taken when the operands carry their rational value.
Only approximation bookkeeping differs between the routes, never the denoted
point.

The generic route is the integer path of CompletionPoint: a request for
precision 2**-k is the integer k, the answer an integer m with
|x - m * 2**-k| < 2**-k.  The completion is the same for any dense subset of
the rationals, so these dyadic approximants m * 2**-k lose nothing, and they
keep every approximant's size at k bits plus the value's.  Each operation
states its precision split once, as offsets on k: it asks its operands for
k + o, combines their integers, and rounds to the grid 2**-k, which costs at
most 2**-(k+1).  The operands' share is therefore strictly below 2**-(k+1).
Lipschitz constants, bounds and gaps are rounded to powers of two once, when
the node is built, so every rounding is a shift or one integer division.

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

from .completion import CompletionPoint, eta
from .partiality import PENDING, TOP, lag_two_sup, map_partial, never, now
from .rational import QPos, ceil_log2, dyadic, round_div

CReal = CompletionPoint

_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def from_rat(q):
    """The real denoted by an exact rational, tagged for fast paths."""
    return eta(Fraction(q))


def from_below(q):
    """q as the limit of eps -> q - eps, which never reports q exactly.

    The approximant at eps is limit's rule applied to that family, q - eps/2.
    The integer path rounds the same approximant at 2**-(k+1), which is
    q - 2**-(k+2), to floor(q * 2**k + 1/4), without building the family.
    """
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    return CompletionPoint(lambda eps: q - _HALF * eps,
                           scaled=lambda k: ((n << (k + 2)) + d) // (4 * d))


ZERO = from_rat(0)
ONE = from_rat(1)


def add(x, y):
    """x + y: each operand at k+2, strictly within 2**-(k+2), then rounded."""
    if x.exact is not None and y.exact is not None:
        return from_rat(x.exact + y.exact)
    return CompletionPoint(
        scaled=lambda k: (x.scaled(k + 2) + y.scaled(k + 2) + 2) >> 2)


def neg(x):
    """-x: the operand's answer at k, negated; no rounding."""
    if x.exact is not None:
        return from_rat(-x.exact)
    return CompletionPoint(scaled=lambda k: -x.scaled(k))


def sub(x, y):
    """x - y, as x + (-y)."""
    return add(x, neg(y))


def join(x, y):
    """Lattice join max(x, y): the operands at k.  max is non-expanding in
    the larger of the two errors, so no rounding is needed."""
    if x.exact is not None and y.exact is not None:
        return from_rat(max(x.exact, y.exact))
    return CompletionPoint(scaled=lambda k: max(x.scaled(k), y.scaled(k)))


def meet(x, y):
    """Lattice meet min(x, y): the operands at k, as for join."""
    if x.exact is not None and y.exact is not None:
        return from_rat(min(x.exact, y.exact))
    return CompletionPoint(scaled=lambda k: min(x.scaled(k), y.scaled(k)))


def absolute(x):
    """|x|, as join(x, -x)."""
    return join(x, neg(x))


def scale(q, x):
    """q * x for rational q.

    With |q| < 2**e, x at k+e+1 is strictly within 2**-(k+e+1), which q
    stretches to under 2**-(k+1); rounding q times that answer to the grid
    2**-k is one integer division.
    """
    q = Fraction(q)
    if x.exact is not None:
        return from_rat(q * x.exact)
    n, d = q.numerator, q.denominator
    e = (abs(n) // d).bit_length()
    return CompletionPoint(
        scaled=lambda k: round_div(n * x.scaled(k + e + 1), d << (e + 1)))


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

    and rounding U*V to the grid adds at most 2**-(k+1).

    x is read before y.  In a left-deep chain of products with one shared
    right operand, such as Horner's rule u*x + c, the innermost mul then asks
    the shared point for the finest precision first, and each outer mul's
    coarser request is served from its memo by a rounding shift.  The rule
    only orders the two operands of one product: a shared point whose first
    request is not its finest computes again for each finer one.

    Custom bounds must genuinely bound the operands; any valid choice denotes
    the same real.
    """
    if x.exact is not None and y.exact is not None:
        return from_rat(x.exact * y.exact)
    a = QPos(y_bound) if y_bound is not None else bound(y)
    b = QPos(x_bound) if x_bound is not None else bound(x)
    ea = ceil_log2(a.numerator, a.denominator)
    eb = ceil_log2(b.numerator, b.denominator)

    def scaled(k):
        u = x.scaled(k + ea + 2)
        clip = 1 << (k + ea + eb + 2)
        p = u * max(-clip, min(clip, y.scaled(k + eb + 2)))
        s = k + ea + eb + 4
        return (p + (1 << (s - 1))) >> s

    return CompletionPoint(scaled=scaled)


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

    Positive case: the gap is rounded down to 2**-g <= gap <= x once, and on
    [2**-g, +inf) the reciprocal is Lipschitz with constant 2**(2g).  A
    request for 2**-k reads x at j = k+2g+1, floors the answer at 2**-g (sound
    because x really does sit there, and never moving it away from x), and
    rounds 2**j / u to the grid 2**-k:

        |2**j/u - 1/x| <= 2**(2g) * |u * 2**-j - x|  <  2**-(k+1),

    plus at most 2**-(k+1) from the rounding.  The negative case mirrors
    through negation: 1/x = -(1/(-x)).
    """
    gap = QPos(witness.gap)
    if x.exact is not None:
        return from_rat(1 / x.exact)
    if not witness.positive:
        return neg(recip_witnessed(neg(x), ApartnessWitness(True, gap)))
    g = ceil_log2(gap.denominator, gap.numerator)

    def scaled(k):
        j = k + 2 * g + 1
        return round_div(1 << (j + k), max(1 << (j - g), x.scaled(j)))

    return CompletionPoint(scaled=scaled)


def lt_rat_semidecide(x, q):
    """Semi-decide x < q for a rational q.

    Stage k fires when x's 2**-k approximant sits below q by more than twice
    the stage precision; the approximant being within 2**-k of x makes that a
    certificate, and every true inequality has a stage fine enough to see its
    gap.  x at or above q never fires a stage.

    Lag-two lemma: if stage m fires, then x < q - 2**-m, so every stage
    n >= m + 2 fires whatever approximant within 2**-n it reads, because
    3 * 2**-n <= 2**-m.  lag_two_sup therefore polls O(log n) stages at fuel
    n and gives the full prefix scan's verdict in a single run; repeated
    runs stay sound and monotone, but may read a memo that a finer run in
    between refined.
    """
    q = Fraction(q)

    def stage(k):
        d = dyadic(k)
        if x.approximate(d) < q - 2 * d:
            return TOP
        return never()

    return lag_two_sup(stage)


def _apart(x):
    """Semi-decide that x is apart from zero; the value is the witness.

    Stage k accepts when |x(2**-k)| > 2 * 2**-k, which certifies
    2**-k <= |x| and the approximant's sign, and answers that certificate.
    A zero real passes no stage; a real apart from zero passes every stage
    fine enough to dominate the approximation error.

    Lag-two lemma: if stage m passes, then |x| > 2**-m, so every stage
    n >= m + 2 passes with the same sign whatever approximant within 2**-n
    it reads, because |x| - 2**-n > 3 * 2**-n.  lag_two_sup therefore
    answers the least passing stage, whose gap is the widest, in O(log n)
    polls at fuel n.
    """
    def stage(k):
        d = dyadic(k)
        a = x.approximate(d)
        if abs(a) > 2 * d:
            return now(ApartnessWitness(a > 0, d))
        return never()

    return lag_two_sup(stage)


def is_positive(x):
    """Semi-decide the sign: Done(True) iff 0 < x, Done(False) iff x < 0.

    The sign of x's apartness witness: one scan, whose stages certify
    either side, so a zero real stays pending at every fuel.
    """
    return map_partial(lambda witness: witness.positive, _apart(x))


def compare_partial(x, y):
    """Semi-decide order: Done(True) iff x < y, Done(False) iff y < x."""
    return is_positive(sub(y, x))


def find_apart_witness(x, fuel):
    """An apartness-from-zero certificate from the stages up to fuel; None
    if none passes.

    The witness scan of is_positive run at fuel: its least passing stage k
    gives the widest gap 2**-k, and recip_witnessed's precision offsets
    grow with k.
    """
    out = _apart(x).run(fuel)
    return None if out is PENDING else out.value
