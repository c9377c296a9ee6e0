import random
import sys
import threading

from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from cauchyreal import (RATIONALS, CompletionPoint, CompletionSpace, LipschitzFn, QPos,
                        check_cauchy, close_semidecide, dyadic, dyadic_pairs,
                        eta, extend_lipschitz, extend_lipschitz2, fires,
                        lim_pointwise, limit, monad_join, monad_map)

from cauchyreal.completion import _magnitude, _Operation, _operation
from cauchyreal.reals import _Below, absolute, add, bound, from_below, mul, neg, sub

from oracles import first_k_with_margin


def below(q):
    """Fresh strictly-from-below representation of the rational q."""
    q = Fraction(q)
    return limit(lambda eps: eta(q - eps))


def test_eta_is_constant():
    point = eta(Fraction(1, 3))
    assert point.approximate(Fraction(1, 2 ** 100)) == Fraction(1, 3)
    assert point.approximate(Fraction(5)) == Fraction(1, 3)
    assert point.exact == Fraction(1, 3)
    assert point.space is RATIONALS


def test_eta_infers_nested_carrier():
    inner = eta(Fraction(2))
    outer = eta(inner)
    assert isinstance(outer.space, CompletionSpace)
    assert outer.space.base is RATIONALS
    assert outer.approximate(Fraction(1, 8)) is inner


def test_eta_needs_carrier_for_unknown_values():
    with pytest.raises(TypeError):
        eta("not a base element")


def test_approximate_rejects_bad_precision():
    point = eta(Fraction(1))
    with pytest.raises(ValueError):
        point.approximate(Fraction(0))
    with pytest.raises(ValueError):
        point.approximate(Fraction(-1, 2))


def test_points_shared_across_threads(corpus):
    # Four threads share fresh corpus points, asking each for mixed
    # precisions and its carrier; every answer must meet the oracle.
    points = [entry.build() for entry in corpus]
    barrier = threading.Barrier(4, timeout=30)
    wrong, finished = [], []

    def work(seed):
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(400):
            i = rng.randrange(len(points))
            eps = dyadic(rng.randint(0, 80))
            value = points[i].approximate(eps)
            if not abs(value - corpus[i].value) < eps or points[i].space is not RATIONALS:
                wrong.append((corpus[i].text, eps, value))
        finished.append(seed)

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
    assert sorted(finished) == [0, 1, 2, 3]
    assert wrong == []


def test_memo_stores_keep_the_finest_answer_across_threads():
    # Four threads ask fresh, independent points for shuffled precisions.
    # One lock serves every point's store and makes its check and write one
    # step, so a coarser answer never replaces a finer one: an operation
    # keeps the largest k asked of it, and an opaque limit point the
    # smallest eps.
    def operation(i):
        x, y = from_below(Fraction(i, 7)), from_below(Fraction(-i, 3))
        return (neg(x), add(x, y), mul(x, y), absolute(sub(x, y)))[i % 4]

    operations = [operation(i) for i in range(16)]
    opaque = [below(Fraction(i, 5)) for i in range(16)]
    rng = random.Random(43)
    asks = [[rng.sample(range(301), 60) for _ in range(32)] for _ in range(4)]
    barrier = threading.Barrier(4, timeout=30)
    finished = []

    def work(n):
        barrier.wait()
        for i, ks in enumerate(asks[n]):
            for k in ks:
                if i < 16:
                    operations[i].scaled(k)
                else:
                    opaque[i - 16].approximate(dyadic(k))
        finished.append(n)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [0, 1, 2, 3]
    finest = [max(k for ks in asks for k in ks[i]) for i in range(32)]
    for i, point in enumerate(operations):
        assert point._memo == (finest[i], operation(i).scaled(finest[i]))
    for i, point in enumerate(opaque):
        eps = dyadic(finest[16 + i])
        assert point._memo == (eps, Fraction(i, 5) - eps / 2)


def test_limit_evaluation_rule_exactly():
    # fresh object each time: the rule gives q - eps/2 on a from-below family
    rng = random.Random(31)
    for _ in range(50):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
        k = rng.randint(0, 80)
        eps = dyadic(k)
        assert below(q).approximate(eps) == q - eps / 2


def test_two_requests_are_mutually_close():
    rng = random.Random(37)
    for _ in range(50):
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        x = below(q)
        e1, e2 = dyadic(rng.randint(0, 40)), dyadic(rng.randint(0, 40))
        v1, v2 = x.approximate(e1), x.approximate(e2)
        assert abs(v1 - v2) < e1 + e2 or v1 == v2


def test_memo_serves_finer_answer_for_coarser_request():
    x = below(Fraction(4))
    fine = x.approximate(dyadic(10))
    # a later, coarser request may legally reuse the cached finer value
    assert x.approximate(Fraction(1)) == fine
    assert abs(x.approximate(Fraction(1)) - 4) <= 1


def test_an_operation_of_three_operands_folds_only_when_all_are_exact():
    third = eta(Fraction(1, 3))

    def point(middle):
        return _operation(lambda a, b, c: a + b + c, lambda k, *ms: sum(ms),
                          (third, 0), (middle, 0), (third, 0))

    assert point(eta(Fraction(1))).exact == Fraction(5, 3)
    # an inexact middle operand leaves the point inexact, read in full
    inexact = point(below(1))
    assert inexact.exact is None
    assert inexact.scaled(10) == 2 * 341 + below(1).scaled(10)


def test_a_points_kind_is_its_class():
    # CompletionPoint is an exact or an opaque point; only an operation
    # holds operands and a rule, and every other point reads as a leaf
    assert CompletionPoint.__slots__ == ("_approx", "exact", "_memo", "_e")
    assert _Operation.__slots__ == ("_operands", "_combine")
    assert _Below.__slots__ == ("n", "d")
    with pytest.raises(TypeError):
        CompletionPoint(scaled=lambda k: 0)
    with pytest.raises(TypeError):
        CompletionPoint()
    assert type(neg(below(1))) is _Operation
    assert type(_operation(None, lambda k: 0)) is _Operation
    for point in (eta(Fraction(1)), below(1), from_below(Fraction(1, 3))):
        assert point._operands is None


@pytest.mark.parametrize("q", [Fraction(5, 3), Fraction(-7, 2), Fraction(1, 9), Fraction(0)])
def test_a_nullary_operation_is_a_memoized_integer_leaf(q):
    # _operation(None, rule) computes rule(k) once for each finer k, and
    # serves a coarser k from its (k, m) memo by a rounding shift
    calls = []

    def rule(k):
        calls.append(k)
        return q.numerator * 2 ** k // q.denominator

    x = _operation(None, rule)
    m = x.scaled(40)
    assert x._memo == (40, m) and calls == [40]
    assert x.scaled(10) == (m + (1 << 29)) >> 30
    assert x.approximate(dyadic(40)) == Fraction(m, 1 << 40)
    assert calls == [40]
    x.scaled(41)
    assert calls == [40, 41] and x._memo[0] == 41
    # bound and _magnitude read it as a leaf, from its answer m at k = 0:
    # the bound |m| + 2, and the least e with |m| + 2 <= 2**e
    m = rule(0)
    assert bound(_operation(None, rule)) == abs(m) + 2
    y = _operation(None, rule)
    assert _magnitude(y) == (abs(m) + 1).bit_length() == y._e


def test_underlying_procedure_is_cauchy():
    rng = random.Random(41)
    x = below(Fraction(22, 7))
    assert check_cauchy(x.approximate, RATIONALS, dyadic_pairs(100, rng, 50))


def test_limit_of_constant_family_denotes_the_element():
    q = Fraction(-5, 8)
    x = limit(lambda eps: eta(q))
    for k in (1, 10, 60):
        assert abs(x.approximate(dyadic(k)) - q) <= dyadic(k)
    s = close_semidecide(Fraction(1, 2 ** 20), x, eta(q))
    assert fires(s, 40)


def test_close_semidecide_firing_stage():
    s = close_semidecide(Fraction(2), eta(Fraction(0)), eta(Fraction(1)))
    assert not fires(s, 1)
    assert fires(s, 2)


def test_close_semidecide_never_fires_at_distance_eps():
    s = close_semidecide(Fraction(1), eta(Fraction(0)), eta(Fraction(1)))
    assert not fires(s, 200)


def test_close_semidecide_sound_and_complete_on_samples():
    rng = random.Random(43)
    for _ in range(40):
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        r = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        x, y = below(q), below(r)
        distance = abs(q - r)
        # strictly close with margin: must fire within the stage budget
        margin = QPos(rng.randint(1, 8), 8)
        eps = distance + margin
        fuel = first_k_with_margin(margin, 4) + 1
        assert fires(close_semidecide(eps, x, y), fuel)
        # at or under the distance: must stay silent at any fuel we try
        if distance > 0:
            assert not fires(close_semidecide(distance, below(q), below(r)), 120)


def test_close_through_approximation():
    # a point eps-close to one member of a family is eps+delta close to its
    # limit, with room to confirm within the stage budget
    rng = random.Random(47)
    for _ in range(30):
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        delta = dyadic(rng.randint(1, 10))
        x = r - delta / 2  # within delta of the family member r - delta
        eps = dyadic(rng.randint(1, 10))
        lim_y = below(r)
        # |x - r| <= delta, so x and lim y sit within eps + delta strictly
        margin = eps + delta - abs(Fraction(x) - r)
        assert margin > 0
        fuel = first_k_with_margin(margin, 4) + 1
        assert fires(close_semidecide(eps + delta, eta(Fraction(x)), lim_y), fuel)


def test_limits_inherit_pointwise_distance():
    # families pointwise D apart have limits within D + delta for every delta
    q, r = Fraction(3, 2), Fraction(17, 8)
    distance = abs(q - r)
    for k in (1, 4, 9):
        delta = dyadic(k)
        fuel = first_k_with_margin(delta, 4) + 1
        assert fires(close_semidecide(distance + delta, below(q), below(r)), fuel)
    assert not fires(close_semidecide(distance, below(q), below(r)), 120)


def test_nested_completion_closeness():
    inner_a, inner_b = eta(Fraction(0)), eta(Fraction(1, 4))
    s = close_semidecide(Fraction(1, 2), eta(inner_a), eta(inner_b))
    assert fires(s, 64)
    t = close_semidecide(Fraction(1, 8), eta(inner_a), eta(inner_b))
    assert not fires(t, 64)


def test_completion_space_close_is_one_sided():
    space = CompletionSpace(RATIONALS, fuel=64)
    assert space.close(Fraction(1, 2), eta(Fraction(0)), eta(Fraction(1, 4)))
    assert not space.close(Fraction(1, 4), eta(Fraction(0)), eta(Fraction(1, 4)))


def test_extend_lipschitz_evaluation_rule_exactly():
    double = LipschitzFn(lambda q: eta(2 * q), Fraction(2))
    ext = extend_lipschitz(double)
    assert ext.constant == 2
    for k in (2, 8, 30):
        eps = dyadic(k)
        # fresh point each round: rule gives f(x(eps/4)) = 2 - eps/4
        assert ext(below(Fraction(1))).approximate(eps) == 2 - eps / 4


def test_extension_converges_to_image_of_limit():
    double = LipschitzFn(lambda q: eta(2 * q), Fraction(2))
    ext = extend_lipschitz(double)
    x = ext(below(Fraction(1)))
    for k in (1, 10, 50):
        assert abs(x.approximate(dyadic(k)) - 2) <= dyadic(k)


def test_extension_agrees_with_function_on_eta():
    double = LipschitzFn(lambda q: eta(2 * q), Fraction(2))
    ext = extend_lipschitz(double)
    image = ext(eta(Fraction(3, 7)))
    assert image.exact == Fraction(6, 7)


def test_extension_is_lipschitz():
    half = LipschitzFn(lambda q: eta(q / 2), Fraction(1, 2))
    ext = extend_lipschitz(half)
    rng = random.Random(53)
    for _ in range(30):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 10))
        eps = QPos(rng.randint(1, 16), 16)
        r = q + eps * Fraction(rng.randint(-99, 99), 100)
        d = dyadic(rng.randint(1, 20))
        a = ext(below(q)).approximate(d)
        b = ext(below(r)).approximate(d)
        # true images are eps/2 apart at most, plus both approximation errors
        assert abs(a - b) < eps / 2 + 2 * d


def test_extensions_of_pointwise_close_functions_stay_close():
    m = Fraction(1, 16)
    f = extend_lipschitz(LipschitzFn(lambda q: eta(q / 2), Fraction(1, 2)))
    g = extend_lipschitz(LipschitzFn(lambda q: eta(q / 2 + m), Fraction(1, 2)))
    for k in (1, 6, 20):
        d = dyadic(k)
        x = below(Fraction(5, 3))
        assert abs(f(x).approximate(d) - g(x).approximate(d)) <= m + 2 * d


def test_extension_commutes_with_limit():
    # applying the extension to a limit matches the limit of the rescaled
    # image family; both sides computed exactly on fresh objects
    q = Fraction(7, 5)
    double = LipschitzFn(lambda q_: eta(2 * q_), Fraction(2))
    ext = extend_lipschitz(double)
    for k in (2, 9, 33):
        d = dyadic(k)
        route1 = ext(below(q)).approximate(d)
        route2 = limit(lambda e: ext(limit(lambda s: eta(q - e / 2 - s)))).approximate(d)
        assert route1 == 2 * q - d / 4
        assert abs(route1 - route2) <= 2 * d


def test_extend_lipschitz2_evaluation_rule():
    plus = extend_lipschitz2(lambda q, r: eta(q + r), 1, 1)
    for k in (1, 7, 25):
        eps = dyadic(k)
        value = plus(below(Fraction(1)), below(Fraction(2))).approximate(eps)
        # x is asked at eps/2, so below(1) answers 1 - eps/4; the inner
        # extension is asked at eps/2 and asks y at eps/4, so below(2)
        # answers 2 - eps/8; the exact sum adds no error: 3 - 3*eps/8
        assert value == 3 - 3 * eps / 8
        assert abs(value - 3) <= eps


def test_extend_lipschitz2_exact_shortcut():
    plus = extend_lipschitz2(lambda q, r: eta(q + r), 1, 1)
    out = plus(eta(Fraction(1, 3)), eta(Fraction(1, 6)))
    assert out.exact == Fraction(1, 2)


def test_extend_lipschitz2_mixed_arguments():
    plus = extend_lipschitz2(lambda q, r: eta(q + r), 1, 1)
    out = plus(eta(Fraction(1)), below(Fraction(2)))
    for k in (2, 12):
        assert abs(out.approximate(dyadic(k)) - 3) <= dyadic(k)


def test_monad_map_exact_and_generic():
    f = LipschitzFn(lambda q: q / 2 + 1, Fraction(1, 2))
    mapped = monad_map(f)
    assert mapped(eta(Fraction(4))).exact == Fraction(3)
    generic = mapped(below(Fraction(4)))
    for k in (3, 17):
        assert abs(generic.approximate(dyadic(k)) - 3) <= dyadic(k)


def test_monad_map_identity_and_composition():
    ident = LipschitzFn(lambda q: q, Fraction(1))
    f = LipschitzFn(lambda q: q + 1, Fraction(1))
    g = LipschitzFn(lambda q: 3 * q, Fraction(3))
    x = below(Fraction(2, 3))
    d = dyadic(20)
    assert abs(monad_map(ident)(x).approximate(d) - x.approximate(d)) <= 2 * d
    lhs = monad_map(g)(monad_map(f)(below(Fraction(2, 3))))
    rhs = monad_map(LipschitzFn(lambda q: g(f(q)), Fraction(3)))(below(Fraction(2, 3)))
    assert abs(lhs.approximate(d) - rhs.approximate(d)) <= 2 * d
    assert abs(lhs.approximate(d) - 5) <= 2 * d  # 3 * (2/3 + 1)


def test_monad_join_of_eta_is_inner_point():
    inner = below(Fraction(5, 6))
    assert monad_join(eta(inner)) is inner


def test_monad_join_flattens_nested_limit():
    q = Fraction(3, 11)
    for k in (1, 8, 28):
        eps = dyadic(k)
        nested = limit(lambda e: eta(eta(q - e)))
        flat = monad_join(nested)
        assert flat.approximate(eps) == q - eps / 4
        assert abs(flat.approximate(dyadic(k)) - q) <= dyadic(k)


def test_monad_join_after_map_eta_is_identity():
    embed = LipschitzFn(lambda q: eta(q), Fraction(1))
    x = below(Fraction(-9, 4))
    nested = monad_map(embed)(x)
    assert isinstance(nested.space, CompletionSpace)
    y = monad_join(nested)
    assert y.space is RATIONALS
    for k in (4, 22):
        d = dyadic(k)
        assert abs(y.approximate(d) - x.approximate(d)) <= 2 * d


_KINDS = ("exact", "below", "limit")
_CONSTANTS = st.fractions(min_value=Fraction(1, 8), max_value=16, max_denominator=8)
_VALUES = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_PRECISIONS = st.one_of(st.integers(min_value=0, max_value=60).map(dyadic),
                        st.fractions(min_value=Fraction(1, 1000), max_value=4,
                                     max_denominator=1000))


def _point(kind, q):
    """A fresh point of value q: exact, from below on the integer path, or an
    opaque limit whose answers at eps lie eps/2 above q."""
    if kind == "exact":
        return eta(q)
    if kind == "below":
        return from_below(q)
    return limit(lambda e: eta(q + e))


def _nested(outer, kind, q):
    """A fresh point whose base elements are points, of value _point(kind, q):
    the exact tag of one, or an opaque limit of points e above it."""
    if outer == "exact":
        return eta(_point(kind, q))
    return limit(lambda e: eta(_point(kind, q + e)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_CONSTANTS, _CONSTANTS, st.sampled_from(_KINDS), st.sampled_from(_KINDS),
       _VALUES, _VALUES, st.sampled_from(("exact", "limit")), _PRECISIONS)
@example(Fraction(10), Fraction(1), "below", "below", Fraction(1), Fraction(2), "limit",
         Fraction(1))
@example(Fraction(1), Fraction(10), "below", "below", Fraction(1), Fraction(2), "exact",
         dyadic(10))
def test_completion_constructions_answer_within_eps_at_any_constant(
        l1, l2, kind1, kind2, q1, q2, outer, eps):
    # Each map below expands by exactly its constant, so every bound is
    # tight; every point is fresh, so no memo serves a request.
    scale = extend_lipschitz(LipschitzFn(lambda a: eta(l1 * a), l1))
    assert abs(scale(_point(kind1, q1)).approximate(eps) - l1 * q1) < eps
    if l1 != l2:
        linear = extend_lipschitz2(lambda a, b: eta(l1 * a + l2 * b), l1, l2)
        value = linear(_point(kind1, q1), _point(kind2, q2)).approximate(eps)
        assert abs(value - (l1 * q1 + l2 * q2)) < eps
    mapped = monad_map(LipschitzFn(lambda a: l2 * a, l2))(_point(kind2, q2))
    assert abs(mapped.approximate(eps) - l2 * q2) < eps
    joined = monad_join(_nested(outer, kind1, q1)).approximate(eps)
    assert abs(joined - q1) < eps
    # eps/2 to the outer procedure and eps/2 to the point it returns; an
    # exact tag is joined to its inner point itself
    nested = _nested(outer, kind1, q1)
    if outer == "exact":
        assert joined == nested.exact.approximate(eps)
    else:
        assert joined == nested.approximate(eps / 2).approximate(eps / 2)
    pointwise = lim_pointwise(lambda e: lambda a: _point(kind2, l1 * a + e))
    assert abs(pointwise(q1).approximate(eps) - l1 * q1) < eps


def test_lim_pointwise_evaluation_rule():
    s = lambda eps: (lambda a: eta(a + eps))
    f = lim_pointwise(s)
    rng = random.Random(59)
    for _ in range(20):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        k = rng.randint(0, 40)
        eps = dyadic(k)
        assert f(a).approximate(eps) == a + eps / 2
        assert abs(f(a).approximate(dyadic(k)) - a) <= dyadic(k)


def test_lim_pointwise_preserves_lipschitz():
    s = lambda eps: (lambda a: eta(a / 2 + eps))
    f = lim_pointwise(s)
    rng = random.Random(61)
    for _ in range(20):
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        eps = QPos(rng.randint(1, 16), 16)
        r = q + eps * Fraction(rng.randint(-99, 99), 100)
        d = dyadic(12)
        assert abs(f(q).approximate(d) - f(r).approximate(d)) < eps / 2 + 2 * d
