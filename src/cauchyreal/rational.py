"""Exact rational arithmetic: the precision currency and the base closeness test.

The numeric core is the standard library's fractions.Fraction, which already
keeps values in lowest terms with a positive denominator and does exact
arithmetic over arbitrary-precision integers.  This module adds the pieces the
rest of the package needs on top of that: a validated strictly-positive
rational for precisions, gaps and Lipschitz constants, the canonical dyadic
precisions, and the closeness relation on rationals.
"""

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

# The base number type everything else works with.
Rat = Fraction


class QPos(Fraction):
    """A strictly positive rational.

    Precisions, Lipschitz constants and apartness gaps live here.  Arithmetic
    inherited from Fraction returns plain Fractions; wrap a result in QPos()
    again wherever positivity needs to be re-asserted.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self <= 0:
            raise ValueError("expected a strictly positive rational, got %s" % self)
        return self


class Value:
    """An immutable value whose fields are its class's __slots__, declared
    once: a subclass that adds no field declares no __slots__.

    A value is built from its fields by position or keyword, equals only a
    value of its own class with equal fields, hashes and prints by its
    fields, and refuses assignment.  Its fields are compared, hashed and
    printed as a tuple's are, so a value nested in another recurses, as in
    a tuple.  copy and pickle rebuild a value through its class, by
    __reduce__, since __setattr__ refuses the slot stores of the default.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(names)))
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            map("%s=%r".__mod__, zip(self.__slots__, self._values()))))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete %r: %s is immutable"
                             % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


def close_q(eps, q, r):
    """Whether |q - r| < eps.  Strict: distance exactly eps is not close."""
    return abs(q - r) < eps


@lru_cache(maxsize=1024)
def dyadic(k):
    """The canonical precision 2**-k, for k >= 0.  Cached: the precisions
    asked for repeat from op to op, such as the CLI's --prec and the gap of
    an apartness witness, which find_apart_witness makes once per search.
    Polled stages read scaled(k) and do not call it, so the CLI makes about
    1 to 3 calls per op on average."""
    if k < 0:
        raise ValueError("dyadic exponent must be >= 0, got %s" % k)
    return QPos(1, 2 ** k)


def ceil_log2(n, d):
    """The least integer e >= 0 with n/d <= 2**e, for integers n, d > 0.
    ceil_log2(eps.denominator, eps.numerator): the least k, 2**-k <= eps."""
    return (-(-n // d) - 1).bit_length()


# A Fraction from a coprime numerator and positive denominator, without the
# constructor's gcd.  3.12 spells it _from_coprime_ints; before that, the
# same two slot stores skip Fraction.__new__, which parses its arguments in
# Python even with _normalize=False.
if hasattr(Fraction, "_from_coprime_ints"):  # 3.12 and later
    _coprime = Fraction._from_coprime_ints
else:  # 3.10 and 3.11
    def _coprime(n, d):
        q = object.__new__(Fraction)
        q._numerator = n
        q._denominator = d
        return q


def dyadic_rat(m, k):
    """The rational m * 2**-k, for k >= 0, in lowest terms.

    Shifting out m's trailing zero bits reduces it; Python's gcd with a power
    of two, which Fraction(m, 2**k) computes, takes 0.4 ms at k = 16,000.
    """
    if m == 0:
        return Fraction(0)
    s = min(k, (m & -m).bit_length() - 1)
    return _coprime(m >> s, 1 << (k - s))


def round_div(n, d):
    """The integer nearest to n/d for d > 0, halves rounded up."""
    return (2 * n + d) // (2 * d)


# The longest run of digits that format_int converts with str().  Python
# accepts no int-to-str digit limit below 640, so no limit refuses a chunk.
_CHUNK = 600
# The most bits of an integer below 10**_CHUNK: 600 * log2(10) is 1993.2.
_CHUNK_BITS = 1993


@lru_cache(maxsize=64)
def _power(i):
    """10**(_CHUNK * 2**i), each the square of the one before."""
    return 10 ** _CHUNK if i == 0 else _power(i - 1) ** 2


def format_int(n):
    """n in decimal, of any length, under any int-to-str digit limit.

    Past _CHUNK digits, |n| is split by divmod by powers of ten, each half
    the length of the one above, down to chunks of at most _CHUNK digits,
    which str() converts.  str() of a long int, and Decimal(int), cost time
    quadratic in its length; the splits cost as much up to about 4,000 bits
    and less past it: 0.23 against 0.38 ms for Decimal(int) at 16,000 bits,
    3.5 against 6.2 ms at 64,000 bits (Python 3.11, 2 shared vCPUs).
    """
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    if n < 0:
        return "-" + format_int(-n)
    i = 0
    while _CHUNK_BITS << (i + 1) < n.bit_length():
        i += 1
    return _decimal(n, i, False)


def _decimal(n, i, pad):
    """n < 10**(_CHUNK * 2**(i + 1)) in decimal, zero-filled to that many
    digits if pad."""
    if i < 0:
        text = str(n)
        return text.zfill(_CHUNK) if pad else text
    power = _power(i)
    if not pad and n < power:
        return _decimal(n, i - 1, False)
    high, low = divmod(n, power)
    return _decimal(high, i - 1, pad) + _decimal(low, i - 1, True)


def parse_int(digits):
    """The integer a run of ASCII digits denotes, of any length: Decimal
    reads what int() refuses past the str-to-int digit limit."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def format_rat(q):
    """Render q as p or p/q, the same notation the expression parser reads."""
    if q.denominator == 1:
        return format_int(q.numerator)
    return "%s/%s" % (format_int(q.numerator), format_int(q.denominator))
