"""Command-line evaluator: exact enclosures, fuel-bounded sign and comparison.

Output is line-oriented key=value pairs on stdout; errors go to stderr in the
same shape.  Exit codes: 0 for a computed verdict (including unknown), 1 for
input that does not parse or a bad command line (such as a negative --prec,
--fuel or --witness-fuel), 2 for a division that cannot certify its
denominator apart from zero.  A usage error caused by an expression with a
leading minus, which argparse takes for a flag, ends with a hint= line.
"""

import argparse
import functools
import re
import sys

from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero,
                     Inexact, InvalidOperation, Overflow)
from fractions import Fraction

from .expressions import ParseError, WitnessSearchError, build_real, parse
from .partiality import PENDING
from .rational import dyadic, dyadic_rat, format_int
from .reals import compare_partial, is_positive

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_WITNESS = 2


@dataclass(frozen=True)
class Enclosure:
    """An exact rational interval certified to contain a real."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, q):
        return self.lo <= q <= self.hi


def _witness_fuel(witness_fuel, steps):
    """The division witness budget: witness_fuel if given, and otherwise
    max(64, steps + 8), where steps is the precision exponent or the fuel."""
    return witness_fuel if witness_fuel is not None else max(64, steps + 8)


def evaluate_enclosure(text, prec_exponent, witness_fuel=None):
    """Parse text and enclose its value within radius 2**-prec_exponent.

    Returns the midpoint's enclosure [m - eps, m + eps] where m is the
    eps-approximant; both endpoints are exact rationals.  A dyadic m is
    shifted onto the finer grid of its own and eps's, sparing a gcd.
    """
    point = build_real(parse(text), _witness_fuel(witness_fuel, prec_exponent))
    eps = dyadic(prec_exponent)
    mid = point.approximate(eps)
    den = mid.denominator
    if den & (den - 1):
        return Enclosure(mid - eps, mid + eps)
    j = den.bit_length() - 1
    k = max(j, prec_exponent)
    a = mid.numerator << (k - j)
    e = 1 << (k - prec_exponent)
    return Enclosure(dyadic_rat(a - e, k), dyadic_rat(a + e, k))


def decimal_digits(prec_exponent):
    """Fractional digits needed to resolve 2**-prec_exponent: ceil(k*log10(2)).

    Computed exactly as the digit count of 2**k (log10(2) is irrational, so
    the ceiling never lands on an integer for k >= 1): the least d with
    2**k < 10**d, searched by integer comparison from floor(k*log10(2)),
    which floating point cannot overshoot by a whole digit.
    """
    if prec_exponent <= 0:
        return 0
    n = 1 << prec_exponent
    digits = int(prec_exponent * 0.30102999566398120)
    power = 10 ** digits
    while power <= n:
        power *= 10
        digits += 1
    return digits


def format_decimal(q, digits, round_up):
    """q as a decimal string with the given fractional digits.

    Rounds toward -inf when round_up is false and toward +inf otherwise, so
    rendering an interval's endpoints outward keeps the printed interval an
    enclosure.  Display only; the rational endpoints are the authority.
    """
    q = Fraction(q)
    scaled = q.numerator * 10 ** digits
    if round_up:
        n = -(-scaled // q.denominator)
    else:
        n = scaled // q.denominator
    return _with_point(n, format_int(abs(n)), digits)


def _with_point(n, text, digits):
    """n * 10**-digits in decimal, where text is |n| in decimal."""
    sign = "-" if n < 0 else ""
    if digits == 0:
        return sign + text
    text = text.rjust(digits + 1, "0")
    return "%s%s.%s" % (sign, text[:-digits], text[-digits:])


# Integer arithmetic on Decimals, exact or raising: precision and exponents
# are unbounded, and a rounding would trap.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[Inexact, InvalidOperation, DivisionByZero, Overflow])


def _ratio(num, den):
    """format_rat's text for num/den, from their Decimals."""
    return str(num) if den == 1 else "%s/%s" % (num, den)


def _twos(n):
    """The exponent of the greatest power of two dividing n > 0."""
    return (n & -n).bit_length() - 1


def _write_enclosure(out, box, prec, fmt):
    """Write what format_rat and format_decimal give for eps = 2**-prec and
    box = [m - eps, m + eps], converting each big integer to decimal once.

    Both endpoints' denominators are odd * 2**s for the odd part of m's, so
    over odd * 2**e, for e the greatest s or prec, their numerators a, b
    differ by 2 * odd * 2**(e - prec), and their decimal lines' integers by
    about 20.  So 2**e is computed in Decimal once and divided down, the
    numerator of lo and the integer of lo.decimal are converted, and those
    of hi are exact Decimal sums of the small differences.  The decimal
    lines' integers are shifts, as digits <= prec <= e:

        floor(x * 10**digits / (odd * 2**e))
            = floor(floor(x * 5**digits / 2**(e - digits)) / odd).
    """
    lo, hi = box.lo, box.hi
    s_lo = _twos(lo.denominator)
    s_hi = _twos(hi.denominator)
    odd = lo.denominator >> s_lo
    e = max(s_lo, s_hi, prec)
    power = _EXACT.power(2, e)

    def pow2(s):
        return _EXACT.divide_int(power, 1 << (e - s))

    out.write("eps=%s\n" % _ratio(1, pow2(prec)))
    a = lo.numerator << (e - s_lo)
    b = hi.numerator << (e - s_hi)
    if fmt in ("rational", "both"):
        num_lo = Decimal(lo.numerator)
        num_hi = _EXACT.divide_int(
            _EXACT.add(_EXACT.multiply(num_lo, 1 << (e - s_lo)), b - a), 1 << (e - s_hi))
        out.write("lo=%s\n" % _ratio(num_lo, _EXACT.multiply(pow2(s_lo), odd)))
        out.write("hi=%s\n" % _ratio(num_hi, _EXACT.multiply(pow2(s_hi), odd)))
    if fmt in ("decimal", "both"):
        digits = decimal_digits(prec)
        five = 5 ** digits
        n_lo = ((a * five) >> (e - digits)) // odd
        n_hi = -(((-b * five) >> (e - digits)) // odd)
        dec_lo = Decimal(n_lo)
        dec_hi = _EXACT.add(dec_lo, n_hi - n_lo)
        out.write("lo.decimal=%s\n" % _with_point(n_lo, str(dec_lo.copy_abs()), digits))
        out.write("hi.decimal=%s\n" % _with_point(n_hi, str(dec_hi.copy_abs()), digits))


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse's default exit code for usage errors collides with the
    # witness-failure code; fold usage problems into the syntax exit code.
    def error(self, message):
        raise _UsageError(message)


def _budget(text):
    """argparse type of the precision and fuel flags: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected an integer >= 0, got %r" % text)
    return value


_FLAGS = ("-h", "--help", "--prec", "--witness-fuel", "--format", "--fuel")
_NEGATIVE_NUMBER = re.compile(r"-\d*\.?\d+$")


def _reads_as_flag(argv):
    """Whether a token before any -- starts with - and is neither a flag,
    nor a prefix of one, nor a negative number: argparse then takes it for
    an unknown flag, as it does an expression with a leading minus."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    return any(token.startswith("-") and not _NEGATIVE_NUMBER.match(token)
               and not any(flag.startswith(token.split("=", 1)[0]) for flag in _FLAGS)
               for token in head)


@functools.cache
def _build_parser():
    """The parser, built on first use and shared: parsing does not change it."""
    parser = _ArgumentParser(prog="creal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to an enclosure")
    p_eval.add_argument("expr")
    p_eval.add_argument("--prec", type=_budget, default=64, metavar="K",
                        help="enclosure radius 2**-K (default 64)")
    p_eval.add_argument("--witness-fuel", type=_budget, default=None, metavar="N",
                        help="division witness search budget (default max(64, K+8))")
    p_eval.add_argument("--format", choices=["rational", "decimal", "both"],
                        default="both", dest="fmt")

    p_sign = sub.add_parser("sign", help="semi-decide the sign of an expression")
    p_sign.add_argument("expr")
    p_sign.add_argument("--fuel", type=_budget, default=256, metavar="N",
                        help="sign search budget (default 256)")
    p_sign.add_argument("--witness-fuel", type=_budget, default=None, metavar="N")

    p_cmp = sub.add_parser("compare", help="semi-decide the order of two expressions")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--fuel", type=_budget, default=256, metavar="N")
    p_cmp.add_argument("--witness-fuel", type=_budget, default=None, metavar="N")

    return parser


def cmd_eval(expr, prec, witness_fuel, fmt, out):
    _write_enclosure(out, evaluate_enclosure(expr, prec, witness_fuel), prec, fmt)
    return EXIT_OK


def cmd_sign(expr, fuel, witness_fuel, out):
    point = build_real(parse(expr), _witness_fuel(witness_fuel, fuel))
    return _write_verdict(out, is_positive(point).run(fuel), fuel, "positive", "negative")


def cmd_compare(a, b, fuel, witness_fuel, out):
    witness_fuel = _witness_fuel(witness_fuel, fuel)
    x = build_real(parse(a), witness_fuel)
    y = build_real(parse(b), witness_fuel)
    # One scan decides both orientations: the sign of y - x.
    return _write_verdict(out, compare_partial(x, y).run(fuel), fuel, "lt", "gt")


def _write_verdict(out, outcome, fuel, if_true, if_false):
    if outcome is PENDING:
        verdict = "unknown"
    else:
        verdict = if_true if outcome.value else if_false
    out.write("verdict=%s\n" % verdict)
    out.write("fuel=%d\n" % fuel)
    return EXIT_OK


def main(argv=None, out=None, err=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write("error=usage\n")
        err.write("message=%s\n" % exc)
        if _reads_as_flag(sys.argv[1:] if argv is None else argv):
            err.write("hint=put flags first, then --, then the expression\n")
        return EXIT_SYNTAX
    try:
        if args.command == "eval":
            return cmd_eval(args.expr, args.prec, args.witness_fuel, args.fmt, out)
        if args.command == "sign":
            return cmd_sign(args.expr, args.fuel, args.witness_fuel, out)
        return cmd_compare(args.a, args.b, args.fuel, args.witness_fuel, out)
    except ParseError as exc:
        err.write("error=syntax\n")
        err.write("position=%d\n" % exc.position)
        err.write("message=%s\n" % exc)
        return EXIT_SYNTAX
    except WitnessSearchError as exc:
        err.write("error=witness\n")
        err.write("fuel=%d\n" % exc.fuel)
        err.write("message=%s\n" % exc)
        return EXIT_WITNESS


def console_main():
    sys.exit(main())
