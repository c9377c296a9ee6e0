import os
import shutil
import subprocess
import sys
import threading
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from cauchyreal import (Enclosure, cli, dyadic, evaluate_enclosure, expressions,
                        parse, reals)
from cauchyreal.cli import decimal_digits, format_decimal, main

from oracles import eval_exact


def run_main(argv):
    out, err = StringIO(), StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_eval_exact_half():
    code, out, err = run_main(["eval", "1/3 + 1/6", "--prec", "64"])
    assert code == 0
    assert err == ""
    assert out == (
        "eps=1/18446744073709551616\n"
        "lo=9223372036854775807/18446744073709551616\n"
        "hi=9223372036854775809/18446744073709551616\n"
        "lo.decimal=0.49999999999999999994\n"
        "hi.decimal=0.50000000000000000006\n")


def test_eval_generic_division():
    code, out, err = run_main(["eval", "below(1)/below(4)", "--prec", "10"])
    assert code == 0
    assert out == ("eps=1/1024\n"
                   "lo=255/1024\n"
                   "hi=257/1024\n"
                   "lo.decimal=0.2490\n"
                   "hi.decimal=0.2510\n")


def test_eval_prec_zero_has_no_decimal_places():
    code, out, err = run_main(["eval", "below(3)", "--prec", "0"])
    assert code == 0
    assert out == "eps=1\nlo=3/2\nhi=7/2\nlo.decimal=1\nhi.decimal=4\n"


def test_eval_format_selection():
    code, out, _ = run_main(["eval", "2/7", "--prec", "5", "--format", "rational"])
    assert code == 0
    assert out == "eps=1/32\nlo=57/224\nhi=71/224\n"
    code, out, _ = run_main(["eval", "2/7", "--prec", "5", "--format", "decimal"])
    assert code == 0
    assert out == "eps=1/32\nlo.decimal=0.25\nhi.decimal=0.32\n"


def test_sign_verdicts():
    assert run_main(["sign", "3/4 - 1/2", "--fuel", "64"]) == \
        (0, "verdict=positive\nfuel=64\n", "")
    assert run_main(["sign", "0", "--fuel", "30"]) == \
        (0, "verdict=unknown\nfuel=30\n", "")
    # a leading minus needs the -- separator, and flags must come before it
    assert run_main(["sign", "--fuel", "64", "--", "-1/1000000"]) == \
        (0, "verdict=negative\nfuel=64\n", "")


def test_compare_verdicts():
    assert run_main(["compare", "22/7", "355/113"]) == \
        (0, "verdict=gt\nfuel=256\n", "")
    assert run_main(["compare", "1/3", "1/2"]) == \
        (0, "verdict=lt\nfuel=256\n", "")
    # equal values never separate; the verdict stays unknown at any fuel
    assert run_main(["compare", "1/2", "below(1/2)", "--fuel", "40"]) == \
        (0, "verdict=unknown\nfuel=40\n", "")


def test_syntax_error_exit_code_and_report():
    code, out, err = run_main(["eval", "1 + * 2"])
    assert code == 1
    assert out == ""
    assert err == ("error=syntax\n"
                   "position=4\n"
                   "message=unexpected token '*' (at position 4)\n")
    # only ASCII digits make numbers
    for text, position in (("2\u00b2", 1), ("\u0661\u0662", 0)):
        code, out, err = run_main(["eval", text])
        assert (code, out) == (1, "")
        assert err.startswith("error=syntax\nposition=%d\n" % position)


def test_witness_error_exit_code_and_report():
    code, out, err = run_main(["eval", "1/(1-1)"])
    assert code == 2
    assert out == ""
    assert err.startswith("error=witness\nfuel=72\n")
    code, _, err = run_main(["eval", "1/(1-1)", "--witness-fuel", "10"])
    assert code == 2
    assert err.startswith("error=witness\nfuel=10\n")


def test_usage_errors_exit_one():
    code, out, err = run_main(["eval"])
    assert code == 1
    assert err.startswith("error=usage\n")
    code, _, err = run_main(["frobnicate"])
    assert code == 1
    assert err.startswith("error=usage\n")
    # flags after -- are taken as positionals, which is a usage error
    code, _, err = run_main(["sign", "--", "-1", "--fuel", "64"])
    assert code == 1
    assert err.startswith("error=usage\n")
    # precisions and budgets are integers >= 0
    for argv in (["eval", "1", "--prec", "-1"],
                 ["eval", "1", "--prec", "ten"],
                 ["eval", "1/(1-1)", "--witness-fuel", "-1"],
                 ["sign", "1", "--fuel", "-3"],
                 ["sign", "1", "--witness-fuel", "-1"],
                 ["compare", "1", "2", "--fuel", "-3"]):
        code, out, err = run_main(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error=usage\n")


_HINT = "hint=put flags first, then --, then the expression\n"


def test_an_expression_read_as_a_flag_gets_a_hint():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv, missing in ((["eval", "-below(1)"], "expr"), (["sign", "-1/3"], "expr"),
                          (["compare", "1", "-1/2"], "b")):
        expected = (1, "", "error=usage\nmessage=the following arguments are "
                    "required: %s\n%s" % (missing, _HINT))
        assert run_main(argv) == expected
        done = subprocess.run([sys.executable, "-m", "cauchyreal", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == expected
    # no hint where no expression was taken for a flag: a missing expression,
    # a known flag or a prefix of one, a negative number, a token after --
    for argv in (["eval"], ["eval", "--prec", "5"], ["eval", "--pre", "5"],
                 ["eval", "1", "--prec", "-1"], ["sign", "--", "-1", "--fuel", "64"],
                 ["compare", "--", "-1/2"]):
        code, out, err = run_main(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error=usage\nmessage=") and "hint=" not in err
    code, _, err = run_main(["eval", "1", "-x"])
    assert code == 1 and err.endswith(_HINT)


def test_python_dash_m_runs_the_command_line():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def creal(*argv):
        done = subprocess.run([sys.executable, "-m", "cauchyreal", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert "Traceback" not in done.stderr
        return done.returncode, done.stdout, done.stderr

    assert creal("eval", "2/7", "--prec", "5") == (
        0, "eps=1/32\nlo=57/224\nhi=71/224\nlo.decimal=0.25\nhi.decimal=0.32\n", "")
    assert creal("sign", "--fuel", "64", "--", "-1/1000000") == (
        0, "verdict=negative\nfuel=64\n", "")
    code, out, err = creal("eval", "1 + * 2")
    assert (code, out) == (1, "")
    assert err.startswith("error=syntax\nposition=4\nmessage=")
    code, out, err = creal("eval", "1", "--prec", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error=usage\nmessage=")
    code, out, err = creal("eval", "1/(1-1)")
    assert (code, out) == (2, "")
    assert err.startswith("error=witness\nfuel=72\nmessage=")


def test_decimal_digits():
    assert decimal_digits(-3) == 0
    assert decimal_digits(0) == 0
    assert decimal_digits(1) == 1
    assert decimal_digits(4) == 2
    assert decimal_digits(10) == 4
    assert decimal_digits(64) == 20


def test_decimal_digits_matches_decimal_count():
    # ceil(k * log10(2)) in 60-digit Decimal arithmetic, far finer than the
    # distance of k * log10(2) from an integer for these k
    context = Context(prec=60)
    log10_2 = context.log10(Decimal(2))
    for k in range(20001):
        count = context.multiply(Decimal(k), log10_2).to_integral_value(ROUND_CEILING)
        assert decimal_digits(k) == int(count)


def _exact(text):
    """A printed rational or decimal of any length, read without int(str)."""
    num, _, den = text.partition("/")
    return Fraction(Decimal(num)) / Fraction(Decimal(den or "1"))


def _horner(x_text):
    # criterion 12's degree-8 polynomial P(x)
    expr = "2"
    for c in (1, -3, 5, -7, 11, -13, 17, -19):
        expr = "(%s * (%s) %s %d)" % (expr, x_text, "+" if c >= 0 else "-", abs(c))
    return expr


@pytest.mark.parametrize("text, prec", [("1/3", 15000), (_horner("below(1/3)"), 1500)])
def test_eval_prints_answers_past_the_int_to_str_limit(text, prec):
    code, out, err = run_main(["eval", text, "--prec", str(prec)])
    assert (code, err) == (0, "")
    answer = dict(line.split("=", 1) for line in out.splitlines())
    lo, hi = _exact(answer["lo"]), _exact(answer["hi"])
    value = eval_exact(parse(text))
    assert _exact(answer["eps"]) == dyadic(prec)
    assert hi - lo == 2 * dyadic(prec)
    assert lo <= value <= hi
    assert _exact(answer["lo.decimal"]) <= value <= _exact(answer["hi.decimal"])


def _count_calls(monkeypatch, module, name, counted=lambda *args: True):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        if counted(*args):
            calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_repeated_subexpression_is_searched_and_divided_once(monkeypatch):
    # the eight x of P(x) are one point: one witness search, and one
    # 32,000-by-16,000-bit division serves every product's request
    searches = _count_calls(monkeypatch, expressions, "find_apart_witness")
    divisions = _count_calls(monkeypatch, reals, "round_div",
                             lambda n, d: n.bit_length() > 16000)
    text = _horner("1/(3 + below(0))")
    code, out, err = run_main(["eval", text, "--prec", "16000"])
    assert (code, err) == (0, "")
    assert (len(searches), len(divisions)) == (1, 1)
    answer = dict(line.split("=", 1) for line in out.splitlines())
    lo = _exact(answer["lo"])
    assert lo <= eval_exact(parse(text)) <= lo + 2 * dyadic(16000)


_ONES = "1" * 5000


@pytest.mark.parametrize("text, value", [
    (_ONES + " + 1/3", Fraction(Decimal(_ONES)) + Fraction(1, 3)),
    ("0." + _ONES, Fraction(Decimal("0." + _ONES))),
    ("1/" + _ONES, 1 / Fraction(Decimal(_ONES)))])
def test_eval_reads_literals_past_the_int_to_str_limit(text, value):
    code, out, err = run_main(["eval", text, "--prec", "8"])
    assert (code, err) == (0, "")
    answer = dict(line.split("=", 1) for line in out.splitlines())
    lo, hi = _exact(answer["lo"]), _exact(answer["hi"])
    assert hi - lo == 2 * dyadic(8)
    assert lo <= value <= hi


def test_main_from_threads_prints_what_sequential_calls_print():
    # the parser is shared once built; four threads race to build it, then
    # run every command kind and both kinds of error side by side
    argvs = [["eval", "1/(3 + below(0)) * below(2)", "--prec", "80"],
             ["eval", "max(below(1/7), 1/7)", "--format", "decimal"],
             ["sign", "below(1/1024) - 1/2048", "--fuel", "64"],
             ["sign", "below(0) - 1/1048576"],
             ["compare", "1/2", "below(1/2)", "--fuel", "96"],
             ["compare", "below(2)", "3/2"],
             ["eval", "1 +"],
             ["eval", "1", "--prec", "-1"]]
    expected = [run_main(argv) for argv in argvs]
    cli._build_parser.cache_clear()
    barrier = threading.Barrier(4, timeout=30)
    results = {}

    def work(seed):
        barrier.wait()
        order = argvs[seed:] + argvs[:seed]
        results[seed] = [run_main(argv) for argv in order * 3]

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in range(4):
        assert results[seed] == (expected[seed:] + expected[:seed]) * 3


def test_format_decimal_rounds_outward():
    third = Fraction(1, 3)
    assert format_decimal(third, 2, False) == "0.33"
    assert format_decimal(third, 2, True) == "0.34"
    assert format_decimal(-third, 3, False) == "-0.334"
    assert format_decimal(-third, 3, True) == "-0.333"
    assert format_decimal(Fraction(1, 2), 1, False) == "0.5"
    assert format_decimal(Fraction(1, 2), 1, True) == "0.5"
    assert format_decimal(Fraction(5), 0, False) == "5"
    assert format_decimal(Fraction(-5), 0, True) == "-5"
    assert format_decimal(Fraction(0), 2, False) == "0.00"
    # rounding a small negative up must not print a minus on zero
    assert format_decimal(Fraction(-1, 1000), 2, True) == "0.00"
    assert format_decimal(Fraction(-1, 1000), 2, False) == "-0.01"


def test_enclosure_helpers():
    box = Enclosure(Fraction(1, 4), Fraction(3, 4))
    assert box.width == Fraction(1, 2)
    assert box.contains(Fraction(1, 4))
    assert box.contains(Fraction(3, 4))
    assert box.contains(Fraction(1, 2))
    assert not box.contains(Fraction(7, 8))


def test_evaluate_enclosure_contains_value(corpus):
    for entry in corpus[::7]:
        box = evaluate_enclosure(entry.text, 16, witness_fuel=96)
        assert box.width == 2 * dyadic(16)
        assert box.contains(entry.value)


def test_installed_entry_point():
    exe = shutil.which("creal")
    if exe is None:
        pytest.skip("console script not installed")
    done = subprocess.run([exe, "eval", "2/7", "--prec", "5"],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == ("eps=1/32\nlo=57/224\nhi=71/224\n"
                           "lo.decimal=0.25\nhi.decimal=0.32\n")
    done = subprocess.run([exe, "eval", "1/(1-1)"], capture_output=True, text=True)
    assert done.returncode == 2
