"""Property tests over generated expressions (hypothesis, derandomized).

Expressions have depth at most 5 and use + - * max min abs below, and
division by literals >= 1, so every division finds its witness.  Literals are
non-negative except inside below(...), as the parser makes them.  Garbled
text, for the parser's error paths, is printed expressions with runs of
tokens replaced, or the grammar's tokens in any order.  Signed sums of up
to 60 terms are checked term by term against the exact sum.  Building a real
from text is checked against building it from the recursive-descent
parser's AST, and the one-node |x| and reciprocal against the compositions
they replaced.  A product's bounds are checked against the exponents its
operands' structure gives, and every node of random DAGs against its exact
value.
"""

import re

from fractions import Fraction
from io import StringIO

from hypothesis import example, given, settings, strategies as st

from cauchyreal import (PENDING, ApartnessWitness, CompletionPoint, Done, absolute,
                        add, bound, build_real, dyadic, find_apart_witness, fires,
                        format_rat, from_below, from_rat, interleave, is_positive, join,
                        limit, lt_rat_semidecide, meet, mul, neg, parse, recip_witnessed,
                        signed_sum, sub)
from cauchyreal.cli import cmd_eval, decimal_digits, format_decimal
from cauchyreal.completion import _operation
from cauchyreal.rational import ceil_log2
from cauchyreal.reals import _apart

from oracles import (Abs, Add, Div, FromBelow, Max, Min, Mul, Neg, RatLit, Sub,
                     composed_absolute, composed_recip_witnessed, eval_exact,
                     evaluate_enclosure, format_expr, full_scan_lt, linear_witness,
                     parse_outcome, postorder, recursive_order)

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
    generic = build_real(postorder(node)).exact is None
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
    assert parse(format_expr(node)) == postorder(node)


_BUILD_PRECISIONS = (0, 64, 300)


def _same_build(text):
    """build_real of the text and of the recursive-descent parser's AST,
    fresh, answer alike."""
    from_text, from_ast = build_real(text), build_real(recursive_order(text))
    for k in _BUILD_PRECISIONS:
        assert from_text.approximate(dyadic(k)) == from_ast.approximate(dyadic(k))


@PROPERTY_SETTINGS
@given(expressions(5))
def test_building_from_text_answers_as_building_from_the_ast(node):
    _same_build(format_expr(node))


@st.composite
def mixed_chains(draw):
    """Chains of + and - over a few shared printed subterms, some of them
    sums, with chains nested as right operands and under other operations."""
    pool = draw(st.lists(expressions(2).map(format_expr), min_size=1, max_size=3))

    def chain():
        terms = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                              min_size=1, max_size=8))
        return terms[0][0] + "".join((" + " if plus else " - ") + term
                                     for term, plus in terms[1:])

    text = chain()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        outer = draw(st.sampled_from(("%s + (%s)", "%s - (%s)", "(%s) * (%s)",
                                      "max(%s, %s)", "-(%s) + %s")))
        text = outer % (text, chain()) if draw(st.booleans()) else outer % (chain(), text)
    return text


@PROPERTY_SETTINGS
@given(mixed_chains())
def test_chains_build_from_text_as_from_the_ast(text):
    _same_build(text)


@PROPERTY_SETTINGS
@given(expressions(5, divisors=_NATURALS))
def test_stack_parser_reads_printed_asts_as_the_recursive_parser_does(node):
    text = format_expr(node)
    assert parse_outcome(parse, text) == parse_outcome(recursive_order, text)


_TOKENS = ("1", "0", "7", "1/0", "3/4", "2.5", "-", "+", "*", "/", ",", "(", ")",
           "max", "min", "abs", "below", "spam",
           # where a whole leaf ends or fails to
           "1/02", "1/00", "1/2.5", "2.", ".", "$", "below(", "below(-", " / ", "\t")
_WORDS = st.one_of(
    expressions(2).map(lambda node: re.findall(r"[\d.]+|[a-z]+|\S", format_expr(node))),
    st.lists(st.sampled_from(_TOKENS), max_size=16))


@st.composite
def garbled_text(draw):
    """Printed expressions with a few runs of tokens replaced by others, and
    strings of the grammar's tokens in any order, joined by one run of
    blanks, which may be empty."""
    words = draw(_WORDS)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=len(words)))
        end = start + draw(st.integers(min_value=0, max_value=2))
        words[start:end] = draw(st.lists(st.sampled_from(_TOKENS), max_size=2))
    return draw(st.text(" \t\n\u00a0", max_size=3)).join(words)


@settings(PROPERTY_SETTINGS, max_examples=1000)
@given(garbled_text())
def test_stack_parser_fails_where_the_recursive_parser_does(text):
    assert parse_outcome(parse, text) == parse_outcome(recursive_order, text)


def test_negative_literal_prints_as_a_negation():
    # only below(...) makes a negative literal; elsewhere it reads back as Neg
    node = RatLit(Fraction(-2, 3))
    assert format_expr(node) == "-2/3"
    assert parse(format_expr(node)) == postorder(Neg(RatLit(Fraction(2, 3))))
    assert parse(format_expr(FromBelow(Fraction(-2, 3)))) == postorder(FromBelow(Fraction(-2, 3)))


_NEAR = st.fractions(min_value=-dyadic(40), max_value=dyadic(40),
                     max_denominator=2 ** 60)


@PROPERTY_SETTINGS
@given(expressions(4), _NEAR, st.integers(min_value=0, max_value=96))
def test_lt_rat_and_sign_give_the_full_scan_verdict(node, offset, fuel):
    q = eval_exact(node) + offset
    assert (lt_rat_semidecide(build_real(postorder(node)), q).run(fuel)
            == full_scan_lt(build_real(postorder(node)), q).run(fuel))
    # the sign of x - q, whose two scans share x - q's memo
    def shifted():
        return sub(build_real(postorder(node)), from_rat(q))

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
        return sub(build_real(postorder(node)), from_rat(q))

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


@PROPERTY_SETTINGS
@given(expressions(4), _NEAR, st.lists(st.integers(min_value=0, max_value=300),
                                       min_size=1, max_size=4))
def test_one_node_abs_and_reciprocal_answer_as_their_compositions(node, offset, ks):
    # fresh builds on each side, asked for coarse precisions after fine ones,
    # so that memo reads by a shift are compared too
    ks = sorted(ks, reverse=True)
    q = eval_exact(node) + offset

    def fresh():
        return sub(build_real(postorder(node)), from_rat(q))

    pairs = [(absolute(build_real(postorder(node))),
              composed_absolute(build_real(postorder(node)))),
             (absolute(fresh()), composed_absolute(fresh()))]
    witness = find_apart_witness(fresh(), 96)
    if witness is not None:
        pairs.append((recip_witnessed(fresh(), witness),
                      composed_recip_witnessed(fresh(), witness)))
    for one_node, composed in pairs:
        assert one_node.exact == composed.exact
        for k in ks:
            assert one_node.scaled(k) == composed.scaled(k)
            assert one_node.approximate(dyadic(k)) == composed.approximate(dyadic(k))


def _opaque(x):
    """x behind an opaque procedure, whose integer answers round its
    approximant at 2**-(k+1)."""
    return CompletionPoint(lambda eps: x.approximate(eps))


@PROPERTY_SETTINGS
@given(expressions(4), _NEAR, st.integers(min_value=0, max_value=96))
def test_verdicts_on_opaque_points_are_sound(node, offset, fuel):
    value = eval_exact(node)
    q = value + offset
    if fires(lt_rat_semidecide(_opaque(build_real(postorder(node))), q), fuel):
        assert value < q
    witness = find_apart_witness(_opaque(sub(build_real(postorder(node)), from_rat(q))), fuel)
    if witness is not None:
        assert witness.positive == (offset < 0)
        assert witness.gap <= abs(offset)


def _as_limit(x):
    """x as the limit of the points x + eps/2, an opaque point."""
    return limit(lambda eps: add(x, from_rat(eps / 2)))


def _edges(value, parity):
    """value with integer answers at the edges of their allowance: the
    ceiling of value * 2**k at the k of the given parity, else the floor."""
    def scaled(k):
        t = value * 2 ** k
        return t.numerator // t.denominator + (t.denominator > 1 and k % 2 == parity)

    return _operation(None, scaled)


@PROPERTY_SETTINGS
@given(expressions(4), _NEAR, st.sampled_from(("built", "limit", 0, 1)),
       st.lists(st.integers(min_value=0, max_value=96), max_size=4))
def test_verdict_stages_are_monotone(node, offset, kind, warm):
    # the precondition of the least-stage scan: once stage k of x < q, or of
    # x - q apart from zero, fires, stage k + 1 fires, with the same sign,
    # whatever valid answers the points give: built reals and a limit with
    # memos warmed at finer and coarser k, or answers at the allowance's
    # edges, rounded up at the k of parity kind
    value = eval_exact(node)
    q = value + offset
    if kind in (0, 1):
        x, z = _edges(value, kind), _edges(-offset, kind)
    else:
        x = build_real(postorder(node))
        x = x if kind == "built" else _as_limit(x)
        z = sub(x, from_rat(q))
    for k in warm:
        x.scaled(k)
        z.scaled(k)
    below_q = lt_rat_semidecide(x, q)._f
    apart = _apart(z)._f
    for k in range(80):
        if below_q(k).run(0) is not PENDING:
            assert below_q(k + 1).run(0) is not PENDING
        out = apart(k).run(0)
        if out is not PENDING:
            finer = apart(k + 1).run(0)
            assert finer is not PENDING and finer.value.positive == out.value.positive


def _leaning(q, up):
    """q behind an opaque procedure whose approximants lean to one edge of
    their allowance: q + (1 - 2**-40) * eps, or as far below q."""
    lean = (1 - dyadic(40)) * (1 if up else -1)
    return q, CompletionPoint(lambda eps: q + lean * eps)


def _edge(q, up):
    """q + 2**-600 on the integer path, answered by the ceiling of its
    multiple of 2**k, just under 2**-k too high when q is dyadic; or
    q - 2**-600 and the floor, as far too low."""
    v = q + dyadic(600) if up else q - dyadic(600)

    def scaled(k):
        t = v * 2 ** k
        return -(-t.numerator // t.denominator) if up else t.numerator // t.denominator

    return v, _operation(None, scaled)


_SUM_TERMS = {
    "exact": lambda q, up: (q, from_rat(q)),
    "below": lambda q, up: (q, from_below(q)),
    "opaque": _leaning,
    "edge": _edge,
}


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.sampled_from(sorted(_SUM_TERMS)), _SIGNED, st.booleans()),
                min_size=3, max_size=60),
       st.booleans())
@example([("below", Fraction(1, 2), True), ("exact", Fraction(1, 8), False),
          ("exact", Fraction(0), True)], True)
def test_signed_sums_answer_within_their_allowance(terms, up):
    # (kind, q, added) triples; the opaque and edge terms all err so as to
    # move the sum up, or all down.  The exact terms fold on the rational:
    # the sum answers as its inexact terms plus one exact term, their signed
    # sum.  In the example, rounding 1/8 before negating it would answer 0
    # at k = 0, where the folded sum answers 1.
    values, points = zip(*(_SUM_TERMS[kind](q, up == plus) for kind, q, plus in terms))
    signs = [plus for _, _, plus in terms]
    value = sum(v if plus else -v for v, plus in zip(values, signs))
    total = signed_sum(points, signs)
    inexact = [(x, plus) for x, plus in zip(points, signs) if x.exact is None]
    if not inexact:
        assert total.exact == value
        return
    folded = None
    if len(inexact) < len(terms):
        constant = sum(x.exact if plus else -x.exact for x, plus in zip(points, signs)
                       if x.exact is not None)
        folded = signed_sum([x for x, _ in inexact] + [from_rat(constant)],
                            [plus for _, plus in inexact] + [True])
    for k in PRECISIONS:
        m = total.scaled(k)
        assert abs(m * dyadic(k) - value) < dyadic(k)
        if folded is not None:
            assert folded.scaled(k) == m


# Points for mul's bound reads, one per kind of point: each is made fresh,
# so equal arguments make equal points in equal states.
_BOUND_POINTS = {
    "exact": from_rat,
    "opaque": lambda q: CompletionPoint(lambda eps: q - eps / 3),
    "below": from_below,
    "operation": lambda q: add(from_below(q), from_below(Fraction(1, 3))),
}
# (kind, value, memo): a point's memo before the read is none, the coarse
# answer at 1, or a finer one.
_BOUND_CASES = st.tuples(
    st.sampled_from(sorted(_BOUND_POINTS)), _SIGNED,
    st.one_of(st.sampled_from((None, 0)), st.integers(min_value=1, max_value=80)))


def _bound_point(kind, q, memo):
    x = _BOUND_POINTS[kind](q)
    if memo is not None:
        x.approximate(dyadic(memo))
    return x


def _leaf_exponent(x):
    """A leaf's e and bound: e is the least with |m| + 2 <= 2**e for its
    answer m at k = 0, a finer memo rounded to the grid 1, and its bound
    2**e."""
    e = ceil_log2(abs(x.scaled(0)) + 2, 1)
    return e, 2 ** e


@PROPERTY_SETTINGS
@given(_BOUND_CASES, _BOUND_CASES)
def test_mul_bounds_its_operands_on_their_approximants_at_one(x_case, y_case):
    # The oracle, on a copy in the same state: a leaf's e and bound from its
    # answer at k = 0, the grid 1 (_leaf_exponent).  The operation is a pair
    # sum of two leaves, at most twice the larger, so its e is their larger
    # e plus 1 and its bound 2**e.  mul reads x at k + e(y) + 2 and y at
    # k + e(x) + 2.
    def pair():
        return _bound_point(*x_case), _bound_point(*y_case)

    def oracle(kind, x):
        if kind != "operation":
            return _leaf_exponent(x)
        e = 1 + max(_leaf_exponent(z)[0] for z, _ in x._operands)
        return e, 2 ** e

    x, y = pair()
    (ex, bx), (ey, by) = oracle(x_case[0], x), oracle(y_case[0], y)
    x, y = pair()
    assert (bound(x), bound(y)) == (bx, by)
    product = mul(*pair())
    if product.exact is not None:
        assert product.exact == x_case[1] * y_case[1]
        return
    assert [offset for _, offset in product._operands] == [ey + 2, ex + 2]
    x, y = pair()
    given_bounds = mul(x, y, x_bound=bx, y_bound=by)
    for k in (0, 64, 1000):
        assert product.scaled(k) == given_bounds.scaled(k)


_SMALL = st.fractions(min_value=-8, max_value=8, max_denominator=8)
_DAG_LEAVES = {
    "literal": (RatLit, from_rat),
    "below": (FromBelow, from_below),
    "opaque": (RatLit, lambda q: CompletionPoint(lambda eps: q - eps / 3)),
}
_DAG_OPERATIONS = {"neg": (Neg, neg), "abs": (Abs, absolute), "max": (Max, join),
                   "min": (Min, meet), "mul": (Mul, mul)}
_DAG_STEPS = st.one_of(
    st.tuples(st.sampled_from(("neg", "abs")), st.integers(0, 99)),
    st.tuples(st.sampled_from(("max", "min", "mul", "div")), st.integers(0, 99),
              st.integers(0, 99)),
    st.tuples(st.just("sum"), st.lists(st.tuples(st.integers(0, 99), st.booleans()),
                                        min_size=2, max_size=5)))


@st.composite
def dags(draw):
    """A recipe for a DAG: leaves, then operations on earlier nodes, picked
    by index modulo the nodes made so far, so later nodes share them."""
    leaves = draw(st.lists(st.tuples(st.sampled_from(sorted(_DAG_LEAVES)), _SMALL),
                           min_size=1, max_size=4))
    return leaves, draw(st.lists(_DAG_STEPS, min_size=1, max_size=10))


def _build_dag(recipe):
    """The (AST, point) of each node of the recipe's DAG, fresh; a division
    adds its reciprocal and its product, and one by zero is left out."""
    leaves, steps = recipe
    nodes = []
    for kind, q in leaves:
        node, point = _DAG_LEAVES[kind]
        nodes.append((node(q), point(q)))
    for op, *args in steps:
        if op == "sum":
            terms = [(nodes[i % len(nodes)], plus) for i, plus in args[0]]
            (node, _), plus = terms[0]
            node = node if plus else Neg(node)
            for (term, _), plus in terms[1:]:
                node = (Add if plus else Sub)(node, term)
            point = signed_sum([x for (_, x), _ in terms], [plus for _, plus in terms])
        elif op == "div":
            (a, x), (b, y) = (nodes[i % len(nodes)] for i in args)
            value = eval_exact(b)
            if value == 0:
                continue
            # the widest gap a witness may give, |b| itself
            recip = recip_witnessed(y, ApartnessWitness(value > 0, abs(value)))
            nodes.append((Div(RatLit(Fraction(1)), b), recip))
            node, point = Div(a, b), mul(x, recip)
        else:
            cls, rule = _DAG_OPERATIONS[op]
            operands = [nodes[i % len(nodes)] for i in args]
            node = cls(*[a for a, _ in operands])
            point = rule(*[x for _, x in operands])
        nodes.append((node, point))
    return nodes


@PROPERTY_SETTINGS
@given(dags())
@example(([("below", Fraction(6))], [("sum", [(0, True), (0, True), (0, True)])]))
@example(([("literal", Fraction(1)), ("below", Fraction(1, 4))], [("div", 0, 1)]))
def test_every_node_is_bounded_before_and_after_evaluation(recipe):
    # |x| <= bound(x) at each node, checked on fresh DAGs: with no node
    # evaluated, and after each node is evaluated at k, so that the leaves
    # read their exponents off finer memos.  The examples are tight: three
    # below(6) sum to 18, against 2**3 for each term and 2**2 for the sum's
    # own three terms; 1/below(1/4) is 4, and its gap 1/4 gives g = 2.
    values = [eval_exact(node) for node, _ in _build_dag(recipe)]
    for k in (None, 0, 64, 1000):
        points = [point for _, point in _build_dag(recipe)]
        if k is not None:
            for point in points:
                point.scaled(k)
        for point, value in zip(points, values):
            assert abs(value) <= bound(point)


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
# the printer's edge shapes: lo exactly 0; endpoints 2 and 3, whose
# numerators' trailing zeros pass e; a dyadic midpoint finer than eps; an
# odd part with s > prec
@example((format_expr(RatLit(dyadic(64))), 64, "both"))
@example((format_expr(RatLit(Fraction(5, 2))), 1, "both"))
@example((format_expr(RatLit(Fraction(3, 2 ** 70))), 64, "both"))
@example((format_expr(RatLit(Fraction(1, 3 * 2 ** 70))), 64, "both"))
# odd denominators at the finest precision, both signs
@example((format_expr(RatLit(Fraction(1, 3))), 16000, "both"))
@example((format_expr(RatLit(Fraction(-5, 7))), 16000, "both"))
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
