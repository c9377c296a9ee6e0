"""Property tests over generated expressions (hypothesis, derandomized).

Expressions have depth at most 5 and use + - * max min abs below, and
division by literals >= 1, so every division finds its witness.  Literals are
non-negative except inside below(...), as the parser makes them.
"""

from fractions import Fraction
from io import StringIO

from hypothesis import example, given, settings, strategies as st

from cauchyreal import (PENDING, Done, build_real, dyadic, evaluate_enclosure,
                        find_apart_witness, format_expr, format_rat, from_rat,
                        interleave, is_positive, lt_rat_semidecide, neg, parse,
                        sub)
from cauchyreal.cli import cmd_eval, decimal_digits, format_decimal
from cauchyreal.expressions import (Abs, Add, Div, FromBelow, Max, Min, Mul,
                                    Neg, RatLit, Sub)

from oracles import eval_exact, full_scan_lt, linear_witness

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                             max_examples=100)
PRECISIONS = (0, 1, 2, 64, 300)

_NATURALS = st.fractions(min_value=0, max_value=50, max_denominator=12)
_SIGNED = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_DIVISORS = st.fractions(min_value=1, max_value=50, max_denominator=12)


def expressions(depth, literals=_NATURALS, divisors=_DIVISORS):
    leaves = st.one_of(literals.map(RatLit), _SIGNED.map(FromBelow))
    if depth == 0:
        return leaves
    sub = expressions(depth - 1, literals, divisors)
    return st.one_of(
        leaves,
        st.builds(Neg, sub),
        st.builds(Abs, sub),
        st.builds(Add, sub, sub),
        st.builds(Sub, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Max, sub, sub),
        st.builds(Min, sub, sub),
        st.builds(Div, sub, divisors.map(RatLit)),
    )


@PROPERTY_SETTINGS
@given(expressions(5))
def test_enclosures_are_exact_width_and_contain_the_value(node):
    value = eval_exact(node)
    text = format_expr(node)
    generic = build_real(node).exact is None
    for k in PRECISIONS:
        box = evaluate_enclosure(text, k)
        assert box.width == 2 * dyadic(k)
        assert box.contains(value)
        # a bare below(q) answers with limit's rule, q - eps/2, by design
        if generic and not isinstance(node, FromBelow):
            mid = (box.lo + box.hi) / 2
            den = mid.denominator
            assert den & (den - 1) == 0 and den <= 2 ** k


@PROPERTY_SETTINGS
@given(expressions(5, divisors=_NATURALS))
def test_printing_round_trips_parser_made_asts(node):
    assert parse(format_expr(node)) == node


def test_negative_literal_prints_as_a_negation():
    # only below(...) makes a negative literal; elsewhere it reads back as Neg
    node = RatLit(Fraction(-2, 3))
    assert format_expr(node) == "-2/3"
    assert parse(format_expr(node)) == Neg(RatLit(Fraction(2, 3)))
    assert parse(format_expr(FromBelow(Fraction(-2, 3)))) == FromBelow(Fraction(-2, 3))


_NEAR = st.fractions(min_value=-dyadic(40), max_value=dyadic(40),
                     max_denominator=2 ** 60)


@PROPERTY_SETTINGS
@given(expressions(4), _NEAR, st.integers(min_value=0, max_value=96))
def test_lt_rat_and_sign_give_the_full_scan_verdict(node, offset, fuel):
    q = eval_exact(node) + offset
    assert (lt_rat_semidecide(build_real(node), q).run(fuel)
            == full_scan_lt(build_real(node), q).run(fuel))
    # the sign of x - q, whose two scans share x - q's memo
    def shifted():
        return sub(build_real(node), from_rat(q))

    z = shifted()
    reference = interleave(full_scan_lt(neg(z), 0), full_scan_lt(z, 0))
    assert is_positive(shifted()).run(fuel) == reference.run(fuel)


@PROPERTY_SETTINGS
@given(expressions(4), _NEAR, st.integers(min_value=0, max_value=96))
def test_witness_scan_agrees_with_the_linear_scan(node, offset, fuel):
    # x = -offset on fresh points: the bisection may read a finer memoised
    # approximant than the linear scan, so its least passing stage can land
    # a stage coarser than the linear one's, a wider gap
    q = eval_exact(node) + offset

    def fresh():
        return sub(build_real(node), from_rat(q))

    witness = find_apart_witness(fresh(), fuel)
    reference = linear_witness(fresh(), fuel)
    assert (witness is None) == (reference is None)
    if witness is None:
        assert is_positive(fresh()).run(fuel) is PENDING
        return
    assert witness.positive == reference.positive == (offset < 0)
    assert witness.gap <= abs(offset)
    assert reference.gap / 4 <= witness.gap <= 4 * reference.gap
    assert is_positive(fresh()).run(fuel) == Done(witness.positive)


@st.composite
def eval_calls(draw):
    """(text, k, format) for cmd_eval, whose endpoints m -/+ 2**-k are
    negative or not, zero, integers, dyadic or not."""
    k = draw(st.sampled_from((0, 1, 64, 4000, 16000)))
    whole = draw(st.integers(min_value=-40, max_value=40))
    kind = draw(st.sampled_from(("integer", "dyadic", "fraction", "generic")))
    if kind == "generic":
        node = draw(expressions(3))
    elif kind == "integer":  # an endpoint is whole, zero when whole is 0
        node = RatLit(whole + draw(st.sampled_from((-1, 1))) * dyadic(k))
    elif kind == "dyadic":
        j = draw(st.integers(min_value=0, max_value=k + 4))
        node = RatLit(whole + Fraction(draw(st.integers(min_value=0, max_value=2 ** j)),
                                       2 ** j))
    else:
        node = RatLit(whole + draw(st.fractions(min_value=0, max_value=1,
                                                max_denominator=10 ** 6)))
    return format_expr(node), k, draw(st.sampled_from(("rational", "decimal", "both")))


@PROPERTY_SETTINGS
@given(eval_calls())
@example(("0", 16000, "both"))
@example((format_expr(RatLit(-dyadic(16000))), 16000, "both"))
@example(("-7", 0, "both"))
def test_eval_prints_what_the_reference_formatters_give(call):
    text, k, fmt = call
    box = evaluate_enclosure(text, k)
    digits = decimal_digits(k)
    lines = ["eps=" + format_rat(dyadic(k))]
    if fmt != "decimal":
        lines += ["lo=" + format_rat(box.lo), "hi=" + format_rat(box.hi)]
    if fmt != "rational":
        lines += ["lo.decimal=" + format_decimal(box.lo, digits, False),
                  "hi.decimal=" + format_decimal(box.hi, digits, True)]
    out = StringIO()
    assert cmd_eval(text, k, None, fmt, out) == 0
    assert out.getvalue() == "".join(line + "\n" for line in lines)
