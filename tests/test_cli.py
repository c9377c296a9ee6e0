import hashlib
import json
import os
import runpy
import shutil
import subprocess
import sys
import threading
import time
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from cauchyreal import cli, dyadic, expressions, format_rat, reals
from cauchyreal.cli import decimal_digits, format_decimal, main
from cauchyreal.rational import format_int

from oracles import (ARGPARSE_PARSER, ArgparseUsageError, Enclosure, argparse_read, eval_exact,
                     evaluate_enclosure, parse)


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
    # eval and sign take one expression, so their reports name no operand
    for command in ("eval", "sign"):
        code, out, err = run_main([command, "1 + * 2"])
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


def test_syntax_error_shows_a_number_as_typed():
    for text, position, token in (("1 2.5", 2, "2.5"), ("max(1 0.50)", 6, "0.50")):
        code, out, err = run_main(["eval", text])
        assert (code, out) == (1, "")
        assert err == ("error=syntax\n"
                       "position=%d\n"
                       "message=unexpected token '%s' (at position %d)\n"
                       % (position, token, position))


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


def test_a_double_dash_ending_the_command_line_changes_nothing():
    # a trailing -- is dropped before reading, wherever the flags stand, and
    # adds no hint to the usage error of the command line without it
    for argv in (["eval", "1/3", "--prec", "8", "--"], ["eval", "1/3", "--prec", "8"],
                 ["eval", "--prec", "8", "1/3", "--"], ["eval", "--prec=8", "--", "1/3", "--"]):
        code, out, err = run_main(argv)
        assert (code, err) == (0, "")
        assert out.startswith("eps=1/256\nlo=")
    code, out, err = run_main(["eval", "1/3", "--"])
    assert (code, err) == (0, "")
    assert out.startswith("eps=1/18446744073709551616\n")
    assert run_main(["eval", "--prec", "-1", "--", "1/3", "--"]) == (
        1, "", "error=usage\nmessage=argument --prec: expected an integer from 0 to %d, "
        "got '-1'\n" % cli.MAX_BUDGET)
    assert run_main(["sign", "--", "-1/3", "--fuel", "8", "--"]) == (
        1, "", "error=usage\nmessage=unrecognized arguments: --fuel 8\n")
    # an expression taken for a flag still gets the hint
    code, out, err = run_main(["sign", "-1/3"])
    assert (code, out) == (1, "")
    assert err.endswith("\n" + _HINT)


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


def test_help_is_written_to_out_and_returns_0(capsys):
    # the help is the cli module's docstring, the same bytes in-process and
    # as a program
    src = str(Path(cli.__file__).resolve().parent.parent)
    for argv in (["-h"], ["eval", "-h"], ["sign", "--help"], ["compare", "-h"]):
        assert run_main(argv) == (0, cli.__doc__, "")
        assert capsys.readouterr() == ("", "")
        done = subprocess.run([sys.executable, "-m", "cauchyreal", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, cli.__doc__, "")
    assert cli.__doc__.startswith("usage: creal")


def test_the_forms_table_agrees_with_the_parser():
    (commands,) = [action for action in ARGPARSE_PARSER._actions if action.dest == "command"]
    assert list(commands.choices) == list(cli._FORMS)
    for command, (_, names, flags) in cli._FORMS.items():
        actions = commands.choices[command]._actions
        assert [a.dest for a in actions if not a.option_strings] == list(names)
        assert {s: a.dest for a in actions for s in a.option_strings} == \
            {**dict.fromkeys(cli._HELP, "help"), **{f: dest for f, (dest, *_) in flags.items()}}
        assert argparse_read([command, *names]) == \
            (command, {**{dest: default for dest, default, _ in flags.values()},
                       **dict(zip(names, names))})


def _reading(read, argv):
    """What a reader makes of argv: its values, a help request or a usage
    error, as ("values", (command, args)), ("help", None) or ("usage", None)."""
    try:
        answer = read(argv)
    except (cli._UsageError, ArgparseUsageError):
        return "usage", None
    return ("help", None) if answer is None else ("values", answer)


def _argparse_reading(argv):
    """The reading the reader must give argv: argparse's, of argv without a
    -- that ends it."""
    return _reading(argparse_read, argv[:-1] if argv[-1:] == ["--"] else argv)


def _argparse_reads_alike(argv):
    """Whether argparse releases agree on argv, as far as known: they differ
    on a -- before the command, which 3.11 takes for the command, and some
    take more tokens than 3.11 for negative numbers.  The reader keeps
    3.11's readings, which test_usage_errors_are_worded_as_argparse_words_them
    pins."""
    command = next((token for token in argv if cli._option(token, ())[0] is None), None)
    number = ARGPARSE_PARSER._negative_number_matcher.match
    head = argv[:argv.index("--")] if "--" in argv else argv
    return command != "--" and all(
        bool(number(token)) == bool(cli._NEGATIVE_NUMBER.match(token)) for token in head)


# Forms beside the plain ones: help, an abbreviated or repeated flag, a value
# _budget refuses, a value token or a token before -- that starts with a
# minus, a second -- or one that ends argv, a wrong positional count, a flag
# of another command, no command, and spellings of N that int() accepts.
_EDGE_FORMS = [["-h"], ["eval", "1", "--pre", "5"], ["eval", "1", "--prec", "5", "--prec", "6"],
               ["eval", "1", "--prec=-5"], ["eval", "1", "--prec="], ["eval", "1", "--prec", "-0_0"],
               ["eval", "-1"], ["eval", "-"],
               ["compare", "--", "--", "1"], ["eval", "1", "--format", "decimal", "--"],
               ["sign", "1", "--"], ["eval"], ["compare", "1"], ["sign", "1", "2"],
               ["sign", "1", "--format", "both"], ["eval", "1", "--fuel", "5"], [],
               ["sign", "1/3", "--fuel=64"], ["eval", "2/7", "--prec", "5"],
               ["compare", "1/3", "--fuel", "5", "1/2"], ["eval", "2/7", "--prec", " 7"],
               ["eval", "2/7", "--prec", "1_0"], ["eval", "2/7", "--prec", "+3"],
               ["eval", "1", "-x", "--prec", "5"], ["eval", "1", "--", "--"], ["-x"],
               ["eval", "2/7", "--prec", "-0"], ["compare", "-", "--fue", "8", "2"]]


@pytest.mark.parametrize("argv", _EDGE_FORMS)
def test_main_answers_as_argparse_alone(argv):
    reading = _reading(cli._read_argv, argv)
    if _argparse_reads_alike(argv):
        assert reading == _argparse_reading(argv)
    if reading[0] == "values":
        # main answers as on the plain form of the values read: every flag
        # given as --flag=N, then --, then the positionals
        command, args = reading[1]
        _, names, flags = cli._FORMS[command]
        plain = [command, *("%s=%s" % (flag, args[dest]) for flag, (dest, *_) in flags.items()
                            if args[dest] is not None), "--", *(args[name] for name in names)]
        assert run_main(argv) == run_main(plain)
    else:
        assert run_main(argv)[0] == {"help": 0, "usage": 1}[reading[0]]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["compare"], "the following arguments are required: a, b"),
    (["frobnicate", "1"], "argument command: invalid choice: 'frobnicate' "
                          "(choose from 'eval', 'sign', 'compare')"),
    (["--", "eval", "1"], "argument command: invalid choice: '--' "
                          "(choose from 'eval', 'sign', 'compare')"),
    (["eval", "1", "--prec"], "argument --prec: expected one argument"),
    (["eval", "1", "--pre", "-x"], "argument --prec: expected one argument"),
    (["eval", "1", "--prec", "--", "2"], "argument --prec: expected one argument"),
    (["eval", "1", "--prec", "-0_0"], "argument --prec: expected one argument"),
    (["sign", "1", "--fuel=-1"],
     "argument --fuel: expected an integer from 0 to %d, got '-1'" % cli.MAX_BUDGET),
    (["eval", "1", "--format", "x"],
     "argument --format: invalid choice: 'x' (choose from 'rational', 'decimal', 'both')"),
    (["eval", "1", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    (["-x", "sign", "1", "2", "--fuel", "3", "-y"], "unrecognized arguments: -x 2 -y"),
    (["eval", "1", "2", "-x", "--", "3"], "unrecognized arguments: 2 -x -- 3"),
    (["eval", "1", "--", "3"], "unrecognized arguments: 3"),
    (["sign", "1", "--fuel", "3", "--", "2"], "unrecognized arguments: -- 2"),
])
def test_usage_errors_are_worded_as_argparse_words_them(argv, message):
    # Python 3.11's argparse, whose wording the reader keeps; later releases
    # may word some of these otherwise, so they are pinned here instead
    code, out, err = run_main(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error=usage\nmessage=%s\n" % message)


@pytest.mark.parametrize("line_break", ["\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                        "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("token", ["x%sy", "-x%sy"])
def test_a_usage_message_that_echoes_a_line_break_stays_one_line(token, line_break):
    # "unrecognized arguments: ..." echoes the tokens it names, here after
    # eval's one expression, and the second as a flag of no command, which
    # adds the hint; each character that str.splitlines breaks a line at is
    # written escaped
    token %= line_break
    code, out, err = run_main(["eval", "1", token])
    assert (code, out) == (1, "")
    assert all("=" in line for line in err.splitlines()), err
    assert "message=unrecognized arguments: %s\n" % token.encode("unicode_escape").decode() in err


_BUDGETS = ["0", "64", " 7", "1_0", "+3", str(cli.MAX_BUDGET)]
_TEXTS = ["1/3", "below(1)", "", "2", "-1", "-", "--prec", "-1/3"]
_FORMATS = ["rational", "decimal", "both"]


@st.composite
def _documented_argv(draw):
    """A command with its positionals and some of its flags, in any order,
    but with the positionals from the first that starts with a minus, and
    maybe others, after a -- (which then never ends argv)."""
    command = draw(st.sampled_from(sorted(cli._FORMS)))
    _, names, flags = cli._FORMS[command]
    texts = draw(st.lists(st.sampled_from(_TEXTS), min_size=len(names), max_size=len(names)))
    pieces = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        value = draw(st.sampled_from(_FORMATS if flag == "--format" else _BUDGETS))
        pieces.append(["%s=%s" % (flag, value)] if draw(st.booleans()) else [flag, value])
    dashed = [i for i, text in enumerate(texts) if text.startswith("-")]
    cut = draw(st.integers(0, dashed[0] if dashed else len(texts)))
    pieces += [[text] for text in texts[:cut]]
    argv = [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]
    if cut < len(texts):
        argv += ["--", *texts[cut:]]
    return argv


_TOKENS = ["eval", "sign", "compare", "--", "-", "-h", "--help", "-x", "--pre", "--prec",
           "--fuel", "--fue", "--witness-fuel", "--format", "--prec=5", "--prec=", "--prec=-5",
           "--fuel=64", "--format=decimal", "rational", "x", "-0", "-0_0", "-1", *_BUDGETS,
           *_TEXTS]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_documented_argv())
def test_the_reader_reads_every_documented_form(argv):
    reading = _reading(cli._read_argv, argv)
    assert reading[0] == "values" and reading == _argparse_reading(argv)


@st.composite
def _edited_argv(draw):
    """A documented form with one or two tokens inserted, removed or replaced;
    half the tokens put in are --, whose place decides the most."""
    argv = draw(_documented_argv())
    for _ in range(draw(st.integers(1, 2))):
        start = draw(st.integers(0, len(argv)))
        argv[start:start + draw(st.integers(0, 1))] = draw(
            st.lists(st.just("--") | st.sampled_from(_TOKENS), max_size=1))
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=7), _edited_argv()))
def test_the_reader_agrees_with_argparse(argv):
    if _argparse_reads_alike(argv):
        assert _reading(cli._read_argv, argv) == _argparse_reading(argv)


def test_the_reader_reads_every_workload_argv():
    # the benchmark's generators, which import nothing outside the standard
    # library, loaded from their file
    workloads = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench"
                                   / "workloads.py"))
    for workload in workloads["WORKLOADS"]:
        for seed in (3, 5, 41):
            for op in workloads["generate"](workload, seed):
                reading = _reading(cli._read_argv, list(op.argv))
                assert reading[0] == "values" and reading == _argparse_reading(list(op.argv))


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


_GOLDEN = Path(__file__).with_name("golden_divisions_and_verdicts.json")


def test_division_and_verdict_bytes_match_the_golden_file():
    # each record is an argv with the exit code, stdout and stderr that main
    # gave for it: eval of three divisions by values near zero at --prec 0,
    # 64 and 1000, and sign and compare of them and of their denominators at
    # fuel 0, 40, 41, 42 and 256.  A coarser or finer least witness stage
    # changes the gap, and with it recip_witnessed's offsets; this catches
    # such a change once it reaches the printed bytes
    for call in json.loads(_GOLDEN.read_text()):
        expected = (call["code"], call["stdout"], call["stderr"])
        assert run_main(call["argv"]) == expected, call["argv"]


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


@pytest.mark.parametrize("text, value", [
    (" + ".join(["1"] * 10000), Fraction(10000)),
    ("(" * 10000 + "1/3" + ")" * 10000, Fraction(1, 3))], ids=["sum", "parentheses"])
def test_eval_of_input_nested_past_the_recursion_limit(text, value):
    # an exact value needs no approximation, which still takes one frame
    # per level of nesting
    assert sys.getrecursionlimit() < 10000
    code, out, err = run_main(["eval", text, "--prec", "64", "--format", "rational"])
    eps = dyadic(64)
    assert (code, err) == (0, "")
    assert out == "eps=%s\nlo=%s\nhi=%s\n" % (eps, value - eps, value + eps)


_BELOW_SUM = " + ".join(["below(1/3)"] * 800)
# a sum nested to the right stays a chain of two-term sums, 800 levels deep
_RIGHT_SUM = "below(1/3) + (" * 799 + "below(1/3)" + ")" * 799


@pytest.mark.parametrize("text, value", [
    (_BELOW_SUM, Fraction(800, 3)),
    (_RIGHT_SUM, Fraction(800, 3)),
    ("-" * 800 + "below(1)", Fraction(1)),
    ("max(" * 800 + "below(1)" + ", 1/2)" * 800, Fraction(1))],
    ids=["sum", "right_nested_sum", "negations", "max"])
def test_eval_approximates_800_levels_deep(text, value):
    # approximation takes one frame per level of nesting, so 800 inexact
    # levels fit under the default limit of 1000 frames; a left-deep sum is
    # one level, a signed sum of all its terms
    assert sys.getrecursionlimit() <= 1000
    code, out, err = run_main(["eval", "--prec", "4000", "--format", "rational", "--", text])
    assert (code, err) == (0, "")
    answer = dict(line.split("=", 1) for line in out.splitlines())
    lo, hi = _exact(answer["lo"]), _exact(answer["hi"])
    assert hi - lo == 2 * dyadic(4000)
    assert lo <= value <= hi


def test_sign_of_a_sum_800_levels_deep():
    assert sys.getrecursionlimit() <= 1000
    text = _BELOW_SUM + " - (800/3 - 1/1000)"
    assert run_main(["sign", "--", text]) == (0, "verdict=positive\nfuel=256\n", "")


def test_sign_of_a_right_nested_sum_800_levels_deep():
    assert sys.getrecursionlimit() <= 1000
    text = _RIGHT_SUM + " - (800/3 - 1/1000)"
    assert run_main(["sign", "--", text]) == (0, "verdict=positive\nfuel=256\n", "")


# Nesting that approximation cannot reach at the default recursion limit.
# Each division's witness search rereads the chain below it at a finer
# precision than its memo holds, so the cost grows with the square of the
# depth; denominators near 3 keep each search at its first stages.
_TOO_DEEP = {
    "negations": "-" * 1200 + "below(1)",
    "max": "max(1, " * 1500 + "below(1)" + ")" * 1500,
    "right_nested_sum": "below(1) + (" * 1999 + "below(1)" + ")" * 1999,
    "divisions": "9/(" * 1200 + "below(3)" + ")" * 1200,
}
_DEPTH_ERROR = "error=depth\nmessage=nested too deep to evaluate at the recursion limit\n"


@pytest.mark.parametrize("command", ["eval", "sign"])
@pytest.mark.parametrize("case", sorted(_TOO_DEEP))
def test_nesting_past_the_recursion_limit_reports_an_error(command, case):
    assert run_main([command, "--", _TOO_DEEP[case]]) == (1, "", _DEPTH_ERROR)


def test_nesting_past_the_recursion_limit_has_no_traceback_as_a_program():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for command in ("eval", "sign"):
        done = subprocess.run([sys.executable, "-m", "cauchyreal", command, "--",
                               _TOO_DEEP["negations"]],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", _DEPTH_ERROR)
    # one level less than the limit still answers
    done = subprocess.run([sys.executable, "-m", "cauchyreal", "eval", "--",
                           "-" * 989 + "below(1)"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("eps=")


def _mixed_sum(terms):
    """below(1/7) + below(2/7) + below(3/7) - below(4/7) + ..., every third
    term from the third subtracted, and its value."""
    text = ["below(1/7)"]
    value = Fraction(1, 7)
    for i in range(2, terms + 1):
        minus = i % 3 == 0
        text.append(" %s below(%d/7)" % ("-" if minus else "+", i))
        value += Fraction(-i if minus else i, 7)
    return "".join(text), value


@pytest.mark.parametrize("terms", [10000, 100000])
@pytest.mark.parametrize("prec", [64, 4000])
def test_eval_of_a_long_mixed_sum(terms, prec):
    # a left-deep chain of + and - is one signed sum, which reads each term
    # at k + e + 1 for terms <= 2**e and evaluates in one frame.  100,000
    # terms pass Linux's 128 KiB limit on one argument, so the command line
    # runs in-process
    assert sys.getrecursionlimit() <= 1000
    text, value = _mixed_sum(terms)
    code, out, err = run_main(["eval", "--prec", str(prec), "--format", "rational", "--",
                               text])
    assert (code, err) == (0, "")
    answer = dict(line.split("=", 1) for line in out.splitlines())
    lo, hi = _exact(answer["lo"]), _exact(answer["hi"])
    assert hi - lo == 2 * dyadic(prec)
    assert lo < value < hi


@pytest.mark.parametrize("argv", [["eval", "--prec", "2000", "1/3"], ["sign", "--", "1/3"]],
                         ids=["eval", "sign"])
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # the pipe's read end is closed before the command starts, so its first
    # write (unbuffered) or its last flush (buffered) meets a broken pipe
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "cauchyreal", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_main_from_threads_prints_what_sequential_calls_print():
    # four threads run every command kind and both kinds of error side by
    # side
    argvs = [["eval", "1/(3 + below(0)) * below(2)", "--prec", "80"],
             ["eval", "max(below(1/7), 1/7)", "--format", "decimal"],
             ["sign", "below(1/1024) - 1/2048", "--fuel", "64"],
             ["sign", "below(0) - 1/1048576"],
             ["compare", "1/2", "below(1/2)", "--fuel", "96"],
             ["compare", "below(2)", "3/2"],
             ["eval", "1 +"],
             ["eval", "1", "--prec", "-1"]]
    expected = [run_main(argv) for argv in argvs]
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


def _reference_eval(text, prec, fmt="both"):
    """eval's stdout for text at --prec prec, from the reference formatters
    on evaluate_enclosure."""
    box = evaluate_enclosure(text, prec)
    digits = decimal_digits(prec)
    lines = ["eps=" + format_rat(dyadic(prec))]
    if fmt != "decimal":
        lines += ["lo=" + format_rat(box.lo), "hi=" + format_rat(box.hi)]
    if fmt != "rational":
        lines += ["lo.decimal=" + format_decimal(box.lo, digits, False),
                  "hi.decimal=" + format_decimal(box.hi, digits, True)]
    return "".join(line + "\n" for line in lines)


def _eval_bytes(text, prec, fmt="both"):
    out = StringIO()
    assert cli.cmd_eval(text, prec, None, fmt, out) == 0
    return out.getvalue()


# At --prec 64 this midpoint is finer than eps: the printer's exponent is
# its own 20000, not the precision's, and 2**20000 is then made for it.
_FINER_THAN_EPS = "1/" + format_int(3 * 2 ** 20000)
_REPEATED_PRECISIONS = [("1/(3 + below(0))", prec, "both") for prec in (16000, 64, 16000, 4000, 0)]
_REPEATED_PRECISIONS += [("-5/7", 16000, "decimal"), ("1/3", 16000, "rational"),
                         (_FINER_THAN_EPS, 64, "both"), (_FINER_THAN_EPS, 20000, "both"),
                         (_FINER_THAN_EPS, 64, "decimal"), ("1/(3 + below(0))", 16000, "both")]


def test_eval_in_one_process_prints_each_precision_as_the_reference_does():
    # the constants made for one call's exponent are read by the next that
    # shares it, as the precision or as a midpoint's finer exponent
    cli._power_of_two.cache_clear()
    for text, prec, fmt in _REPEATED_PRECISIONS:
        assert _eval_bytes(text, prec, fmt) == _reference_eval(text, prec, fmt)


def test_the_printers_constants_are_bounded():
    maxsize = cli._power_of_two.cache_info().maxsize
    for prec in range(maxsize + 3):
        assert _eval_bytes("-1/3", prec) == _reference_eval("-1/3", prec)
        assert cli._power_of_two.cache_info().currsize <= maxsize
    assert cli._power_of_two.cache_info().currsize == maxsize


def test_threads_printing_mixed_precisions_print_the_serial_bytes():
    expected = [_eval_bytes(*case) for case in _REPEATED_PRECISIONS]
    cli._power_of_two.cache_clear()
    barrier = threading.Barrier(8, timeout=30)
    results = {}

    def work(seed):
        barrier.wait()
        order = _REPEATED_PRECISIONS[seed:] + _REPEATED_PRECISIONS[:seed]
        results[seed] = [_eval_bytes(*case) for case in order * 2]

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in range(8):
        assert results[seed] == (expected[seed:] + expected[:seed]) * 2


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


def test_importing_the_cli_leaves_typing_dataclasses_inspect_and_string_out():
    # pytest imports these itself, so the import runs in a fresh interpreter;
    # -S keeps out the site module, whose .pth files may import them
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import cauchyreal.cli; "
            "print([name for name in ('typing', 'dataclasses', 'inspect', 'string') "
            "if name in sys.modules])" % src)
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_a_syntax_error_beats_a_failing_division():
    # the whole text parses before the division's witness search would fail
    code, out, err = run_main(["eval", "--", "1/(1-1) +"])
    assert (code, out) == (1, "")
    assert err == ("error=syntax\n"
                   "position=9\n"
                   "message=unexpected end of input (at position 9)\n")


@pytest.mark.parametrize("bad", ["1+", ")"])
def test_a_syntax_error_in_either_operand_beats_a_failing_division(bad):
    # both texts parse before the witness search of either would fail, and
    # the report names the operand the error is in
    position = len(bad) if bad == "1+" else 0
    message = ("unexpected end of input" if bad == "1+"
               else "unexpected token ')'")
    report = "position=%d\nmessage=%s (at position %d)\n" % (position, message, position)
    assert run_main(["compare", "--", "1/(1-1)", bad]) == (
        1, "", "error=syntax\noperand=b\n" + report)
    assert run_main(["compare", "--", bad, "1/(1-1)"]) == (
        1, "", "error=syntax\noperand=a\n" + report)


@pytest.mark.parametrize("argv, builder", [
    (["eval", "--prec", str(cli.MAX_BUDGET), "--", "1"], "build_real"),
    (["sign", "--fuel", str(cli.MAX_BUDGET), "--", "below(1)-1"], "build_real"),
    (["compare", "--fuel", str(cli.MAX_BUDGET), "--", "below(1)", "1"], "build_real"),
])
def test_running_out_of_memory_reports_an_error(monkeypatch, argv, builder):
    # a stand-in for the allocation that fails, so no test allocates for real
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(cli, builder, fail)
    code, out, err = run_main(argv)
    assert (code, out) == (1, "")
    assert err == ("error=memory\n"
                   "message=out of memory; try a smaller --prec or --fuel\n")


def test_budgets_are_capped():
    # the cap itself is accepted (no eval runs at it here); one past it is
    # refused before anything is built, where 2**63 once allocated for
    # seconds before running out of memory
    assert cli._budget(str(cli.MAX_BUDGET)) == cli.MAX_BUDGET >= 16000
    over = str(cli.MAX_BUDGET + 1)
    for argv in (["eval", "--prec", over, "--", "1"],
                 ["eval", "--witness-fuel", over, "--", "1/below(1)"],
                 ["sign", "--fuel", over, "--", "below(1)-1"],
                 ["compare", "--witness-fuel", over, "--", "1", "below(1)"],
                 ["sign", "--fuel", "9223372036854775808", "--", "1"]):
        start = time.perf_counter()
        code, out, err = run_main(argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err.startswith("error=usage\nmessage=argument --")
        assert "expected an integer from 0 to %d" % cli.MAX_BUDGET in err


# The sha256 of eval's stdout for criterion 12's polynomial at an exact
# point, a below() point and a reciprocal, at each --prec: the bounds and
# precision offsets of the products decide every byte.
_HORNER_POINTS = {"exact": "5/7", "below": "below(5/7)", "recip": "1/(3 + below(0))"}
_HORNER_SHA256 = {
    ("exact", 0): "6d575b592553ab744b5d7ff6135cd456e6799cc80de97013d7100b819665db21",
    ("exact", 64): "3422c2a2c1d0ee57e2899850e9229be249fc17eb39d76296d03cab5b87219430",
    ("exact", 1000): "9faaf4d32d43adaba0eac47fbdf3db330bd4797a868106e2b0ed622e3e865d6d",
    ("exact", 16000): "d244ae51f514404dc9f0218b7e4c861bf2cbc74ae9f2ece01b6a2dfc3f639270",
    ("below", 0): "83b402f5c1c45e284c753beaffe5c95fcb818043701f854248cb2968d9b8a9c7",
    ("below", 64): "60b3d578f16b64d74a1e9232ce446e695fca1c80522dca16e3ad2dc099152ee2",
    ("below", 1000): "41eb8dd8c4d17e5b028ab088b698b843c3d285d9d03ba486475c77341525a0ac",
    ("below", 16000): "1ec076a8eea96fdf46986655f4767f95b97a08641ff0617ca3df7605f208301a",
    ("recip", 0): "c1c5e369ccb089fa6c01717003c15a7c83e89680ba41e9ea50ec9b97b9f6586f",
    ("recip", 64): "001821a67e2af8f82b1e206f2c649add42160f5f520095b79c6d555fff14a606",
    ("recip", 1000): "e2c9c739361adfb9c150ecd3a23f227990c12f578179764a7a99d644798d8986",
    ("recip", 16000): "a6d5002fd6665fe7e28e1770a7e43a78baf56b881fb89dd8628391f69ad85581",
}


@pytest.mark.parametrize("point, prec", sorted(_HORNER_SHA256))
def test_horner_eval_prints_pinned_bytes(point, prec):
    text = _horner(_HORNER_POINTS[point])
    code, out, err = run_main(["eval", "--prec", str(prec), "--", text])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _HORNER_SHA256[point, prec]


def test_eval_of_260_nested_divisions_by_negative_denominators():
    # 1/(1/(...1/below(-1))) is -1 at every level; a reciprocal by a negative
    # witness is one node, so each level takes two frames, the product and
    # the reciprocal
    assert sys.getrecursionlimit() <= 1000
    text = "1/(" * 260 + "below(-1)" + ")" * 260
    code, out, err = run_main(["eval", "--prec", "64", "--format", "rational", "--", text])
    assert (code, err) == (0, "")
    answer = dict(line.split("=", 1) for line in out.splitlines())
    lo, hi = _exact(answer["lo"]), _exact(answer["hi"])
    assert hi - lo == 2 * dyadic(64)
    assert lo <= -1 <= hi
