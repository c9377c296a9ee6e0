"""Checks a CLI answer against the exact values the generators computed.

Only exact rational comparisons are used: an enclosure must have width
exactly 2 * 2**-k and contain the value, decimal renderings must round
outward, and a verdict must match the sign of the exact difference, with
unknown accepted only for equal values.
"""

import sys

from contextlib import contextmanager
from fractions import Fraction


@contextmanager
def _unlimited_int_digits():
    # The program's own int-to-str limit is part of what is measured, so it is
    # lifted only while this module parses answers, never while an op runs.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _fields(stdout):
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in fields:
            raise ValueError("malformed output line %r" % line)
        fields[key] = value
    return fields


def _check_eval(op, fields):
    value = op.values[0]
    eps = Fraction(1, 2 ** op.prec)
    if Fraction(fields["eps"]) != eps:
        return "eps=%s, expected 2**-%d" % (fields["eps"], op.prec)
    lo, hi = Fraction(fields["lo"]), Fraction(fields["hi"])
    if hi - lo != 2 * eps:
        return "width %s, expected 2**-%d" % (hi - lo, op.prec - 1)
    if not lo <= value <= hi:
        return "enclosure misses the value"
    lo_dec, hi_dec = fields["lo.decimal"], fields["hi.decimal"]
    ulp = Fraction(1, 10 ** len(lo_dec.partition(".")[2]))
    if not (lo - ulp < Fraction(lo_dec) <= lo and hi <= Fraction(hi_dec) < hi + ulp):
        return "decimal endpoints do not round outward by under one digit"
    return None


def _sign_word(difference, words):
    if difference > 0:
        return words[0]
    if difference < 0:
        return words[1]
    return "unknown"


def _check_verdict(op, fields):
    if op.kind == "sign":
        expected = _sign_word(op.values[0], ("positive", "negative"))
    else:
        expected = _sign_word(op.values[1] - op.values[0], ("lt", "gt"))
    verdict = fields["verdict"]
    if verdict != expected:
        return "verdict=%s, expected %s" % (verdict, expected)
    if fields["fuel"] != str(op.fuel):
        return "fuel=%s, expected %d" % (fields["fuel"], op.fuel)
    return None


def check(op, stdout):
    """None if stdout is a correct answer to op, else what is wrong with it."""
    with _unlimited_int_digits():
        try:
            fields = _fields(stdout)
            if op.kind == "eval":
                return _check_eval(op, fields)
            return _check_verdict(op, fields)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            return "unreadable answer: %s: %s" % (type(exc).__name__, exc)
