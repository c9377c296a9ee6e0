import math
import sys
import time

from decimal import Decimal
from fractions import Fraction

import pytest

from cauchyreal import (ParseError, WitnessSearchError, build_real, dyadic, expressions,
                        format_expr, from_below, parse)
from cauchyreal.expressions import (Abs, Add, Div, FromBelow, Max, Min, Mul,
                                    Neg, RatLit, Sub)

from oracles import eval_exact, parse as recursive_parse, parse_outcome, tokenize


def test_tokenize_positions_and_kinds():
    toks = tokenize("1 + max(2.5, x)")
    assert toks[0] == ("int", 1, 0) and type(toks[0][1]) is int
    assert toks[1] == ("sym", "+", 2)
    assert toks[2] == ("name", "max", 4)
    assert toks[4] == ("dec", Fraction(5, 2), 8)
    assert toks[-1][0] == "end"


def test_tokenize_rejects_stray_character():
    # numbers and names are ASCII: other Unicode digits and letters are strays
    for text, position in (("1 + $2", 4), ("2\u00b2", 1), ("\u0661\u0662", 0),
                           ("max\u00e9(1, 2)", 3)):
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert info.value.position == position


def test_parse_reports_a_non_ascii_letter_or_digit_as_a_stray():
    for text in ("max\u00e9(1, 2)", "1 + \u00e9", "ab\u00dfc", "2\u00b2", "\u0661\u0662"):
        assert parse_outcome(parse, text) == parse_outcome(recursive_parse, text)
        with pytest.raises(ParseError, match="unexpected character"):
            parse(text)


def test_fraction_literals_fold():
    assert parse("1/3 + 1/6") == Add(RatLit(Fraction(1, 3)), RatLit(Fraction(1, 6)))
    assert parse("1/2/3") == Div(RatLit(Fraction(1, 2)), RatLit(Fraction(3)))


def test_division_forms_stay_divisions():
    assert parse("1/(1-1)") == Div(RatLit(Fraction(1)),
                                   Sub(RatLit(Fraction(1)), RatLit(Fraction(1))))
    # zero denominator cannot be a literal; it falls back to division
    assert parse("1/0") == Div(RatLit(Fraction(1)), RatLit(Fraction(0)))
    assert parse("(1)/3") == Div(RatLit(Fraction(1)), RatLit(Fraction(3)))


def test_precedence_and_associativity():
    assert parse("1+2*3") == Add(RatLit(Fraction(1)),
                                 Mul(RatLit(Fraction(2)), RatLit(Fraction(3))))
    assert parse("1-2-3") == Sub(Sub(RatLit(Fraction(1)), RatLit(Fraction(2))),
                                 RatLit(Fraction(3)))
    assert parse("-2*max(1, 3/2)") == Mul(Neg(RatLit(Fraction(2))),
                                          Max(RatLit(Fraction(1)), RatLit(Fraction(3, 2))))
    assert parse("2 - - 3") == Sub(RatLit(Fraction(2)), Neg(RatLit(Fraction(3))))


def test_decimals_are_exact():
    assert parse("3.14") == RatLit(Fraction(157, 50))
    assert parse("-0.125") == Neg(RatLit(Fraction(1, 8)))


def test_functions_and_below():
    assert parse("abs(-4/9)") == Abs(Neg(RatLit(Fraction(4, 9))))
    assert parse("min(1, 2)") == Min(RatLit(Fraction(1)), RatLit(Fraction(2)))
    assert parse("below(1/2)") == FromBelow(Fraction(1, 2))
    assert parse("below(-2)") == FromBelow(Fraction(-2))
    assert parse("below(2.5)") == FromBelow(Fraction(5, 2))


def test_syntax_error_positions():
    with pytest.raises(ParseError) as info:
        parse("1 + * 2")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse("max(1)")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse("")
    assert "end of input" in str(info.value)
    with pytest.raises(ParseError):
        parse("spam(1)")
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("below(1 + 2)")


@pytest.mark.parametrize("text, message, position", [
    # a below(...) that is not one whole leaf fails at the first token that
    # breaks below ( [-] literal )
    ("below(1/0)", "unexpected token '/'", 7),
    ("below(1/2 3)", "unexpected token '3'", 10),
    ("below(--1)", "unexpected token '-'", 7),
    ("below(below(1))", "unexpected token 'below'", 6),
    # an unexpected leaf shows its first token
    ("2 below(1)", "unexpected token 'below'", 2),
    ("max 1/2", "unexpected token '1'", 4),
    # a stray character comes before any syntax error
    ("1/2.", "unexpected character '.'", 3),
    ("1 + + $", "unexpected character '$'", 6),
    ("2.5.5", "unexpected character '.'", 3),
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
])
def test_syntax_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == "%s (at position %d)" % (message, position)
    assert info.value.position == position


def test_long_blank_and_zero_runs_read_in_linear_time():
    # a pattern whose quantifiers can split one run between them backtracks
    # for minutes on runs this long
    run = " " * 100000
    zeros = "0" * 100000
    texts = ["1" + run, "below(" + run + "x", "below(-" + run + "x",
             "1" + run + "/" + run + "2", "1" + run + "/" + run + "x",
             "1/" + zeros, "1/" + zeros + "x"]
    start = time.perf_counter()
    for text in texts:
        assert parse_outcome(parse, text) == parse_outcome(recursive_parse, text)
    assert time.perf_counter() - start < 2


def test_round_trip_on_corpus(corpus):
    for entry in corpus:
        printed = format_expr(entry.node)
        assert parse(printed) == entry.node


def test_round_trip_keeps_divisions_divisions():
    node = parse("(1)/3")
    assert parse(format_expr(node)) == node


def test_build_real_matches_oracle(corpus):
    for entry in corpus:
        point = entry.build()
        for k in (4, 24):
            eps = dyadic(k)
            assert abs(point.approximate(eps) - entry.value) <= eps


def test_build_real_from_below_rule():
    point = build_real(parse("below(5)"))
    eps = dyadic(6)
    assert point.approximate(eps) == 5 - eps / 2


@pytest.mark.parametrize("text, q", [
    ("below(2/4)", Fraction(1, 2)), ("below(-7/3)", Fraction(-7, 3)), ("below(0)", Fraction(0)),
    ("below(5)", Fraction(5)), ("below(-1.250)", Fraction(-5, 4)),
    ("below(%d/%d)" % (10 ** 40 + 1, 3 ** 90), Fraction(10 ** 40 + 1, 3 ** 90)),
])
def test_below_leaf_from_text_answers_as_from_below(text, q):
    # the leaf is made from the order's integer pair, with no Fraction; it
    # answers what the public from_below of the Fraction answers, which is
    # floor(q * 2**k + 1/4) and q - eps/2 (finest eps last, so no memo serves)
    leaf, reference = build_real(text), from_below(q)
    for k in range(201):
        assert leaf.scaled(k) == reference.scaled(k) == math.floor(q * 2 ** k + Fraction(1, 4))
    for eps in (Fraction(5), Fraction(1), dyadic(1), Fraction(1, 3), dyadic(64),
                Fraction(1, 10 ** 30)):
        answer = leaf.approximate(eps)
        assert type(answer) is Fraction
        assert answer == reference.approximate(eps) == q - eps / 2 != q


def test_build_real_witness_failure():
    with pytest.raises(WitnessSearchError) as info:
        build_real(parse("1/(1-1)"), witness_fuel=72)
    assert info.value.fuel == 72


def test_division_witness_budget():
    # denominator 2^-10 needs stages near 12; a budget of 3 cannot see it
    node = Div(RatLit(Fraction(1)), FromBelow(Fraction(1, 1024)))
    with pytest.raises(WitnessSearchError):
        build_real(node, witness_fuel=3)
    point = build_real(node, witness_fuel=20)
    eps = dyadic(8)
    assert abs(point.approximate(eps) - 1024) <= eps


def test_eval_exact_agrees_on_frozen_values():
    assert eval_exact(parse("2/7 + 3.5 * (1 - 2/3)")) == Fraction(61, 42)
    assert eval_exact(parse("1/2/3")) == Fraction(1, 6)
    assert eval_exact(parse("min(max(below(-2), -1), max(below(2), 1))")) == -1


def test_sharing_keys_on_class_and_operands():
    # (a + b) * (a - b) is -3, and 2 * below(2) has no exact tag: merging
    # Add with Sub or a literal with below() of the same value would show
    for text in ("(below(1) + below(2)) * (below(1) - below(2))",
                 "2 * below(2)", "below(2) - 2"):
        node = parse(text)
        point = build_real(node)
        assert point.exact is None
        eps = dyadic(30)
        assert abs(point.approximate(eps) - eval_exact(node)) <= eps


def test_equal_subtrees_build_one_point(monkeypatch):
    built = []
    for cls in (FromBelow, Mul):
        template, operation = expressions._NODES[cls]

        def counting(*args, cls=cls, operation=operation):
            built.append(cls.__name__)
            return operation(*args)

        monkeypatch.setitem(expressions._NODES, cls, (template, counting))
    # every chain of + and -, two terms included, is one signed sum, keyed
    # on its signs as well
    sums = []
    signed_sum = expressions.signed_sum
    monkeypatch.setattr(expressions, "signed_sum",
                        lambda terms, signs: sums.append(signs) or signed_sum(terms, signs))
    point = build_real(parse("(below(1) + below(1)) * (below(1) + below(1))"))
    # one below(1), one sum and the product
    assert sorted(built) == ["FromBelow", "Mul"]
    assert sums == [(True, True)]
    assert abs(point.approximate(dyadic(20)) - 4) <= dyadic(20)
    built.clear()
    sums.clear()
    a_b_c = "(below(1) + below(2) - below(4))"
    point = build_real(parse(a_b_c + " * " + a_b_c))
    assert sums == [(True, True, False)]
    assert sorted(built) == ["FromBelow"] * 3 + ["Mul"]
    assert abs(point.approximate(dyadic(20)) - 1) <= dyadic(20)
    sums.clear()
    point = build_real(parse(a_b_c + " * (below(1) - below(2) + below(4))"))
    assert sums == [(True, True, False), (True, False, True)]
    assert abs(point.approximate(dyadic(20)) + 3) <= dyadic(20)



@pytest.mark.parametrize("text", [
    "below(2/4) - below(1/2)", "2.50 - 5/2", "0/7 - 0", "below(-0) - below(0)",
    "1/2 * 2/4",
])
def test_equal_literals_build_one_leaf(monkeypatch, text):
    # a literal's key is its value in lowest terms, however it is written
    built = []
    for cls in (RatLit, FromBelow):
        template, operation = expressions._NODES[cls]

        def counting(n, d, operation=operation):
            built.append((n, d))
            return operation(n, d)

        monkeypatch.setitem(expressions._NODES, cls, (template, counting))
    for expr in (text, parse(text)):
        built.clear()
        point = build_real(expr)
        assert len(built) == 1 and Fraction(*built[0]).as_integer_ratio() == built[0]
        eps = dyadic(20)
        assert abs(point.approximate(eps) - eval_exact(parse(text))) <= eps


_REPEATS = ("below( 2 / 4 ) + below(2/4) * below(1/2) - 2.50 + 5/2 - 2.5 + below(-0)"
            " + below(0) + below( - 0 )",
            "max(below(2/4), below(  2/4)) * (5/2 + 2.50) / below(2/4) - 5 / 2")


@pytest.mark.parametrize("text", _REPEATS)
def test_repeated_leaves_keep_the_recursive_descent_order(text):
    # each distinct leaf lexeme is read once; its repeats, however spelled,
    # append the triple that the oracle's parse gives them
    order = expressions._postfix(text)
    assert order == expressions._postorder(recursive_parse(text))
    leaves = [item for item in order if type(item) is tuple]
    assert leaves[0] is leaves[1]


def test_a_repeated_literal_past_the_digit_limit_reads_through_decimal():
    # int() refuses more than 4,300 digits; parse_int's Decimal reads them
    digits = "7" * 4400 + "1"
    big = int(Decimal(digits))
    order = expressions._postfix("%s + below(%s/7) - %s + below( %s / 7 )" % ((digits,) * 4))
    leaves = [item for item in order if type(item) is tuple]
    assert leaves == [(RatLit, big, 1), (FromBelow, big, 7)] * 2
    assert leaves[0] is leaves[2] and leaves[1] is leaves[3]


def test_each_distinct_leaf_lexeme_is_read_once(monkeypatch):
    read = []
    parse_int = expressions.parse_int
    monkeypatch.setattr(expressions, "parse_int", lambda digits: read.append(digits)
                        or parse_int(digits))
    expressions._postfix(_REPEATS[0])
    # below(2/4), below(1/2), 2.50, 5/2, 2.5, below(-0) and below(0): the
    # lexemes below( 2 / 4 ) and below(2/4) are one, as are below(-0) and
    # below( - 0 )
    assert sorted(read) == sorted(["2", "4", "1", "2", "250", "5", "2", "25", "0", "0"])


DEEP = 10000


@pytest.mark.parametrize("text, printed, value", [
    ("(" * DEEP + "1/3" + ")" * DEEP, "1/3", Fraction(1, 3)),
    (" + ".join(["1"] * DEEP), "(" * (DEEP - 1) + "1" + " + 1)" * (DEEP - 1), DEEP),
    ("-" * DEEP + "1", "-" * DEEP + "1", 1),
    ("max(" * (DEEP // 2) + "1" + ", 2)" * (DEEP // 2),
     "max(" * (DEEP // 2) + "1" + ", 2)" * (DEEP // 2), 2),
    ("-" * DEEP + "below(1)", "-" * DEEP + "below(1)", None),
], ids=["parentheses", "sum", "negations", "max", "negated_below"])
def test_parse_build_and_print_have_no_depth_limit(text, printed, value):
    # each nests deeper than the recursion limit
    assert sys.getrecursionlimit() < DEEP // 2
    node = parse(text)
    assert format_expr(node) == printed
    assert node == parse(printed)
    assert build_real(node).exact == value


def test_long_sum_round_trips_through_the_printer():
    printed = format_expr(parse(" + ".join(["below(1/3)", "2.5", "-1", "3"] * (DEEP // 4))))
    assert format_expr(parse(printed)) == printed


def test_walks_reject_what_is_not_a_node():
    node = Add(RatLit(Fraction(1)), Neg(Fraction(2)))
    for walk in (format_expr, build_real):
        with pytest.raises(TypeError, match="not an expression node: Fraction"):
            walk(node)


def test_a_syntax_error_anywhere_comes_before_any_witness_search(monkeypatch):
    # text is read whole before anything is built, so the failing division
    # on the left is never searched
    searched = []
    monkeypatch.setattr(expressions, "find_apart_witness",
                        lambda x, fuel: searched.append(x))
    with pytest.raises(ParseError) as info:
        build_real("1/(1-1) + )")
    assert info.value.position == 10
    assert searched == []
    monkeypatch.undo()
    with pytest.raises(WitnessSearchError):
        build_real("1/(1-1) + 1")


def test_witness_searches_run_left_before_right(monkeypatch):
    seen = []
    find_apart_witness = expressions.find_apart_witness
    monkeypatch.setattr(expressions, "find_apart_witness",
                        lambda x, fuel: seen.append(x) or find_apart_witness(x, fuel))
    for expr in ("1/below(2) + 1/below(3)", parse("1/below(2) + 1/below(3)")):
        seen.clear()
        point = build_real(expr)
        eps = dyadic(20)
        assert [round(x.approximate(eps)) for x in seen] == [2, 3]
        assert abs(point.approximate(eps) - Fraction(5, 6)) <= eps


def test_a_non_node_fails_before_any_operand_is_built(monkeypatch):
    # the AST is walked whole first, so the division left of the stray
    # Fraction is never searched
    monkeypatch.setattr(expressions, "find_apart_witness",
                        lambda x, fuel: pytest.fail("searched a witness"))
    node = Add(Div(RatLit(Fraction(1)), RatLit(Fraction(0))), Fraction(1))
    with pytest.raises(TypeError, match="not an expression node: Fraction"):
        build_real(node)

