"""usage: creal eval [--prec K] [--witness-fuel N] [--format F] [--] EXPR
       creal sign [--fuel N] [--witness-fuel N] [--] EXPR
       creal compare [--fuel N] [--witness-fuel N] [--] A B
       creal -h

eval encloses the value of EXPR within radius 2**-K, where K is --prec
(default 64), and prints the enclosure as rationals, decimals or both
(--format rational, decimal or both; default both).  sign semi-decides the
sign of EXPR, and compare the order of A and B, within N stages, where N is
--fuel (default 256).  A division searches for its witness within
--witness-fuel stages (default max(64, K + 8), with K the --prec or
--fuel).  --prec, --fuel and --witness-fuel take an integer from 0 to
2**20.

Flags and expressions come in any order.  A flag is given as --flag N or
--flag=N, may be cut to a prefix that no other flag shares (--pre 8), and
keeps its last value when repeated.  Every token after -- is an expression,
so an expression that starts with a minus goes after it; a -- that ends the
command line changes nothing.  -h or --help before any -- prints this text
and exits 0.

Output is line-oriented key=value pairs on stdout; errors go to stderr in the
same shape.  Exit codes: 0 for a computed verdict (including unknown), 1 for
input that does not parse, a bad command line (error=usage), a stdout
closed before the answer was written, a computation that ran out of memory
(error=memory) or one nested too deep for the recursion limit
(error=depth), 2 for a division that cannot certify its denominator apart
from zero.  A syntax error in any operand comes before every witness
search; in compare, an operand=a or operand=b line after error=syntax says
which operand it is in.  A usage error ends with a hint= line when a token
before any -- reads as a flag of no command, as an expression with a
leading minus does.
"""

import os
import re
import sys

from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero,
                     Inexact, InvalidOperation, Overflow)
from fractions import Fraction

from .expressions import ParseError, WitnessSearchError, build_real, parse
from .partiality import PENDING
from .rational import dyadic, format_int
from .reals import compare_partial, is_positive

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_WITNESS = 2

# The largest --prec, --fuel and --witness-fuel: far past the finest
# precision the kernel is meant for, 2**-16000, yet refused at once where a
# larger value would allocate integers of its size for many seconds first.
MAX_BUDGET = 2 ** 20


def _witness_fuel(witness_fuel, steps):
    """The division witness budget: witness_fuel if given, and otherwise
    max(64, steps + 8), where steps is the precision exponent or the fuel."""
    return witness_fuel if witness_fuel is not None else max(64, steps + 8)


def decimal_digits(prec_exponent):
    """Fractional digits needed to resolve 2**-prec_exponent: ceil(k*log10(2)).

    Only bench/ and the tests read it; eval reads the count off the
    Decimal of 2**k that it prints.

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
    """format_rat's text for num/den, from their decimal texts or Decimals."""
    return str(num) if den == 1 else "%s/%s" % (num, den)


def _twos(n):
    """The exponent of the greatest power of two dividing n != 0."""
    return (n & -n).bit_length() - 1


def _write_enclosure(out, mid, prec, fmt):
    """Write what format_rat and format_decimal give for eps = 2**-prec and
    the enclosure [mid - eps, mid + eps], converting each big integer to
    decimal once.

    mid = num / (odd * 2**s) in lowest terms, with odd odd.  Over
    odd * 2**e, for e the greater of s and prec, the endpoints' numerators
    are a = num * 2**(e - s) - odd * 2**(e - prec) and
    b = a + 2 * odd * 2**(e - prec).  Neither shares a factor with odd, as
    each is num * 2**(e - s) plus a multiple of odd and num is prime to odd,
    so an endpoint is in lowest terms once its numerator's trailing zero
    bits are shifted out, at most e of them, and all e of a zero
    numerator, whose odd is then 1.  So 2**e is computed in Decimal once
    and divided down, the numerator of lo and the integer of lo.decimal are
    converted by format_int, and those of hi are exact Decimal sums of the
    small differences: 2 * odd * 2**(e - prec) and about 20.  The decimal
    lines' integers are shifts, as digits <= prec <= e:

        floor(x * 10**digits / (odd * 2**e))
            = floor(floor(x * 5**digits / 2**(e - digits)) / odd),

    where b * 5**digits is a * 5**digits plus (b - a) * 5**digits, whose
    factor b - a is small, so only one big product is made.  digits is the
    length of 2**prec, read off its Decimal.  Decimals are made from signed
    text: unary minus would round them to the context's precision.
    """
    num, den = mid.numerator, mid.denominator
    s = _twos(den)
    odd = den >> s
    e = max(s, prec)
    a = (num << (e - s)) - (odd << (e - prec))
    b = a + (odd << (e - prec + 1))
    power = _EXACT.power(2, e)

    def pow2(j):
        return _EXACT.divide_int(power, 1 << (e - j))

    eps = pow2(prec)
    out.write("eps=%s\n" % _ratio(1, eps))
    if fmt in ("rational", "both"):
        # the endpoints' denominators are odd * 2**s_lo and odd * 2**s_hi:
        # a numerator sheds its trailing zeros, at most e, and all e if zero
        s_lo = e - _twos(a | 1 << e)
        s_hi = e - _twos(b | 1 << e)
        text_lo = format_int(a >> (e - s_lo))
        num_hi = _EXACT.divide_int(
            _EXACT.add(_EXACT.multiply(Decimal(text_lo), 1 << (e - s_lo)), b - a),
            1 << (e - s_hi))
        out.write("lo=%s\n" % _ratio(text_lo, _EXACT.multiply(pow2(s_lo), odd)))
        out.write("hi=%s\n" % _ratio(num_hi, _EXACT.multiply(pow2(s_hi), odd)))
    if fmt in ("decimal", "both"):
        # 2**prec has decimal_digits(prec) digits, for prec >= 1
        digits = eps.adjusted() + 1 if prec else 0
        five = 5 ** digits
        a_five = a * five
        n_lo = (a_five >> (e - digits)) // odd
        n_hi = -(((-a_five - (odd * five << (e - prec + 1))) >> (e - digits)) // odd)
        text_lo = format_int(n_lo)
        dec_hi = _EXACT.add(Decimal(text_lo), n_hi - n_lo)
        out.write("lo.decimal=%s\n" % _with_point(n_lo, text_lo.lstrip("-"), digits))
        out.write("hi.decimal=%s\n" % _with_point(n_hi, str(dec_hi.copy_abs()), digits))


def cmd_eval(expr, prec, witness_fuel, fmt, out):
    point = build_real(expr, _witness_fuel(witness_fuel, prec))
    _write_enclosure(out, point.approximate(dyadic(prec)), prec, fmt)
    return EXIT_OK


def cmd_sign(expr, fuel, witness_fuel, out):
    point = build_real(expr, _witness_fuel(witness_fuel, fuel))
    return _write_verdict(out, is_positive(point).run(fuel), fuel, "positive", "negative")


def cmd_compare(a, b, fuel, witness_fuel, out):
    witness_fuel = _witness_fuel(witness_fuel, fuel)
    # Both texts are read before either is built, so a syntax error in
    # either comes before every witness search.  The error is tagged with
    # its operand's name in the usage, for main's report.
    orders = []
    for name, text in (("a", a), ("b", b)):
        try:
            orders.append(parse(text))
        except ParseError as exc:
            exc.operand = name
            raise
    x, y = [build_real(order, witness_fuel) for order in orders]
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


def _budget(text):
    """The value of --prec, --fuel or --witness-fuel: an integer from 0 to
    MAX_BUDGET, spelt as int() reads it."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= MAX_BUDGET:
        raise ValueError("expected an integer from 0 to %d, got %r" % (MAX_BUDGET, text))
    return value


def _format(text):
    """The value of --format: rational, decimal or both."""
    if text not in ("rational", "decimal", "both"):
        raise ValueError("invalid choice: %r (choose from 'rational', 'decimal', 'both')" % text)
    return text


# Each command's function, its positionals, and for each of its flags the
# keyword the function takes its value by, its default, and the function
# that reads its value or raises ValueError.  The tests build their
# reference parser from this table.
_FUEL = ("fuel", 256, _budget)
_WITNESS = ("witness_fuel", None, _budget)
_FORMS = {
    "eval": (cmd_eval, ("expr",), {"--prec": ("prec", 64, _budget), "--witness-fuel": _WITNESS,
                                   "--format": ("fmt", "both", _format)}),
    "sign": (cmd_sign, ("expr",), {"--fuel": _FUEL, "--witness-fuel": _WITNESS}),
    "compare": (cmd_compare, ("a", "b"), {"--fuel": _FUEL, "--witness-fuel": _WITNESS}),
}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-\d*\.?\d+$")
# Each character str.splitlines breaks a line at, as its escape, so that a
# usage message that echoes argv tokens stays one key=value line.
_LINE_BREAKS = {ord(c): c.encode("unicode_escape").decode()
                for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


class _UsageError(Exception):
    """A command line that names no command with its arguments.  hint tells
    whether a token before any -- reads as a flag of no command: it starts
    with a minus but is neither a negative number nor a flag or the prefix
    of one, as an expression with a leading minus does."""

    def __init__(self, message, argv):
        super().__init__(message)
        head = argv[:argv.index("--")] if "--" in argv else argv
        self.hint = any(all(_option(token, flags)[0] == "" for *_, flags in _FORMS.values())
                        for token in head)


def _option(token, flags):
    """How token reads beside these flags and -h/--help: the flag it names,
    in full or by a prefix that no other flag shares, "" for a flag that
    names none, or None for an argument; and the text after the flag's =, or
    None."""
    if token[:1] != "-" or token in ("-", "--"):
        return None, None
    if token in flags or token in _HELP:
        return token, None
    name, equals, value = token.partition("=")
    found = [flag for flag in (*_HELP, *flags) if flag.startswith(name)]
    if name in found or len(found) == 1:
        return (name if name in found else found[0]), (value if equals else None)
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else "", None


def _read_argv(argv):
    """The command argv names and its keyword arguments, or None for -h.

    argv reads as Python 3.11's argparse reads it with the parser of
    _FORMS, usage errors and their wording included, except that a -- ending
    argv is dropped, and that a token such as -hh or --=8, which argparse
    reads as help or as an ambiguous prefix, is an unknown flag.  Before the
    command, -h asks for help and other flags are unrecognized; the first
    other token, -- included, is the command.  After it, a flag takes the
    text after its = or else the next token, unless that is a flag or --,
    and keeps its last value; -h asks for help; other flags are
    unrecognized.  Every other token, and every token after a --, fills the
    next positional or is unrecognized, as is the -- itself where no
    positional takes the token before or after it.
    """
    argv = argv[:-1] if argv[-1:] == ["--"] else argv
    command, names, flags, args = None, ("command",), {}, {}
    positionals, extras, took = [], [], False
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and command:
            rest, room = list(tokens), len(names) - len(positionals)
            if not (took or rest and room):
                extras.append(token)
            positionals += rest[:room]
            extras += rest[room:]
            break
        flag, value = _option(token, flags)
        if flag is None and not command:
            if token not in _FORMS:
                raise _UsageError("argument command: invalid choice: %r (choose from %s)"
                                  % (token, ", ".join(map(repr, _FORMS))), argv)
            command, (_, names, flags) = token, _FORMS[token]
            args = {dest: default for dest, default, _ in flags.values()}
            continue
        took = flag is None and len(positionals) < len(names)
        if not flag:
            (positionals if took else extras).append(token)
        elif flag in _HELP:
            if value is None:
                return None
            raise _UsageError("argument -h/--help: ignored explicit argument %r" % value, argv)
        else:
            if value is None:
                value = next(tokens, "--")
                if value == "--" or _option(value, flags)[0] is not None:
                    raise _UsageError("argument %s: expected one argument" % flag, argv)
            dest, _, read = flags[flag]
            try:
                args[dest] = read(value)
            except ValueError as exc:
                raise _UsageError("argument %s: %s" % (flag, exc), argv) from None
    if len(positionals) < len(names):
        raise _UsageError("the following arguments are required: %s"
                          % ", ".join(names[len(positionals):]), argv)
    if extras:
        raise _UsageError("unrecognized arguments: %s" % " ".join(extras), argv)
    args.update(zip(names, positionals))
    return command, args


def main(argv=None, out=None, err=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        read = _read_argv(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        hint = "hint=put flags first, then --, then the expression\n" if exc.hint else ""
        err.write("error=usage\nmessage=%s\n%s" % (str(exc).translate(_LINE_BREAKS), hint))
        return EXIT_SYNTAX
    if read is None:
        # the help is this module's docstring; python -OO drops it, which
        # leaves the commands
        out.write(__doc__ or "usage: creal {eval,sign,compare} ...\n")
        return EXIT_OK
    command, args = read
    try:
        return _FORMS[command][0](out=out, **args)
    except ParseError as exc:
        operand = "operand=%s\n" % exc.operand if command == "compare" else ""
        err.write("error=syntax\n%sposition=%d\nmessage=%s\n" % (operand, exc.position, exc))
        return EXIT_SYNTAX
    except WitnessSearchError as exc:
        err.write("error=witness\nfuel=%d\nmessage=%s\n" % (exc.fuel, exc))
        return EXIT_WITNESS
    except MemoryError:
        err.write("error=memory\nmessage=out of memory; try a smaller --prec or --fuel\n")
        return EXIT_SYNTAX
    except RecursionError:
        err.write("error=depth\nmessage=nested too deep to evaluate at the recursion limit\n")
        return EXIT_SYNTAX


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: exit 1 without a traceback.  Python's
        # documented recipe points stdout at devnull, so that the
        # interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_SYNTAX
    sys.exit(code)
