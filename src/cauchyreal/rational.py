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
    fields, and refuses assignment.  ==, hash and repr run on explicit
    stacks, so they take values nested to any depth.  copy and pickle
    rebuild a value through its class, by __reduce__, since __setattr__
    refuses the slot stores of the default; copy.deepcopy and pickle walk
    the fields recursively themselves, so they recurse.
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
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, Value) and type(a) is type(b):
                pairs += zip(a._values(), b._values())
            elif not a == b:
                return False
        return True

    def _fold(self, combine, show):
        """combine(value, parts) for self, post-order on an explicit stack:
        parts holds, for each field, the fold of a nested value, or show of
        any other field."""
        done = {}
        todo = [self]
        while todo:
            value = todo[-1]
            fields = value._values()
            pending = [v for v in fields if isinstance(v, Value) and id(v) not in done]
            if pending:
                todo += pending
            else:
                done[id(todo.pop())] = combine(value, [
                    done[id(v)] if isinstance(v, Value) else show(v) for v in fields])
        return done[id(self)]

    def __hash__(self):
        # Each nested value's hash stands in for the value, so a value
        # holding none hashes as hash(self._values()).
        return self._fold(lambda value, parts: hash(tuple(parts)), lambda field: field)

    def __repr__(self):
        def show(value, parts):
            return "%s(%s)" % (type(value).__qualname__, ", ".join(
                map("%s=%s".__mod__, zip(value.__slots__, parts))))

        return self._fold(show, repr)

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
    a firing apartness stage.  Polled stages read scaled(k) and do not call
    it, so the CLI makes about 1 to 3 calls per op on average."""
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


def format_int(n):
    """n in decimal, of any length: Decimal has no int-to-str digit limit."""
    return str(Decimal(n))


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
