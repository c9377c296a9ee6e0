import gc
import io
import math
import random
import types

from fractions import Fraction

import pytest

from cauchyreal import (ONE, PENDING, STAR, TOP, ZERO, ApartnessWitness,
                        CompletionPoint, Done, absolute, add, bound,
                        build_real, compare_partial, dyadic, eta,
                        find_apart_witness, fires, from_below,
                        from_rat, is_positive, join, join_sier, limit,
                        lt_rat_semidecide, meet, mul, neg, never, parse,
                        recip_witnessed, scale, signed_sum, sub)

from cauchyreal.cli import main
from cauchyreal.completion import _magnitude, _operation
from cauchyreal.premetric import RATIONALS
from cauchyreal.reals import _Below

from oracles import (clamp, first_k_with_margin, full_prefix_scan, full_scan_lt,
                     linear_witness)


def below(q):
    q = Fraction(q)
    return limit(lambda eps: eta(q - eps))


def rand_rat(rng, span=999, den=99):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def test_from_rat_tags_exact():
    x = from_rat("22/7")
    assert x.exact == Fraction(22, 7)
    assert x.approximate(dyadic(100)) == Fraction(22, 7)
    assert ZERO.exact == 0 and ONE.exact == 1


def test_fast_paths_return_exact_rationals():
    rng = random.Random(71)
    for _ in range(200):
        q, r = rand_rat(rng), rand_rat(rng)
        x, y = from_rat(q), from_rat(r)
        assert add(x, y).exact == q + r
        assert sub(x, y).exact == q - r
        assert neg(x).exact == -q
        assert join(x, y).exact == max(q, r)
        assert meet(x, y).exact == min(q, r)
        assert absolute(x).exact == abs(q)
        assert mul(x, y).exact == q * r
        assert scale(q, y).exact == q * r


def test_generic_paths_enclose_oracle():
    rng = random.Random(73)
    for _ in range(60):
        q, r = rand_rat(rng, 99, 30), rand_rat(rng, 99, 30)
        cases = [
            (add(below(q), below(r)), q + r),
            (sub(below(q), below(r)), q - r),
            (neg(below(q)), -q),
            (join(below(q), below(r)), max(q, r)),
            (meet(below(q), below(r)), min(q, r)),
            (absolute(below(q)), abs(q)),
            (mul(below(q), below(r)), q * r),
            (scale(q, below(r)), q * r),
        ]
        k = rng.randint(0, 60)
        eps = dyadic(k)
        for point, expected in cases:
            assert abs(point.approximate(eps) - expected) <= eps


def test_dual_routes_agree():
    rng = random.Random(79)
    for _ in range(40):
        q, r = rand_rat(rng, 60, 20), rand_rat(rng, 60, 20)
        eps = dyadic(rng.randint(0, 40))
        pairs = [
            (add(from_rat(q), from_rat(r)), add(below(q), below(r))),
            (mul(from_rat(q), from_rat(r)), mul(below(q), below(r))),
            (join(from_rat(q), from_rat(r)), join(below(q), below(r))),
        ]
        for fast, generic in pairs:
            assert abs(fast.approximate(eps) - generic.approximate(eps)) <= 2 * eps


def test_signed_sum_rejects_terms_and_signs_of_different_lengths():
    # zip would drop the third term and answer 1 - 2
    with pytest.raises(ValueError):
        signed_sum([below(1), below(2), below(4)], [True, False])
    with pytest.raises(ValueError):
        signed_sum([from_rat(1)], [True, False])


def test_the_empty_signed_sum_is_the_exact_zero():
    total = signed_sum([], [])
    assert total.exact == 0
    assert bound(total) >= 1
    assert mul(total, below(3)).approximate(dyadic(10)) == 0
    assert mul(below(3), total).scaled(7) == 0


def test_scale_examples():
    assert scale(3, from_rat(Fraction(1, 3))).exact == 1
    x = scale(0, below(Fraction(7)))
    assert abs(x.approximate(dyadic(10))) <= dyadic(10)
    # scale(q, x) is mul(from_rat(q), x): x is read at the offset the
    # product gives it, k + e + 2 for q's magnitude exponent e (at q = 3,
    # e = 3 and x is read at k + 5), and the two answer alike
    for q in (3, Fraction(-7, 2), Fraction(1, 9), 0):
        x = from_below(Fraction(5, 7))
        scaled, product = scale(q, x), mul(from_rat(q), x)
        assert scaled._operands[1][0] is x
        assert [o for _, o in scaled._operands] == [o for _, o in product._operands]
        for k in (0, 64, 1000):
            assert scale(q, from_below(Fraction(5, 7))).scaled(k) == (
                mul(from_rat(q), from_below(Fraction(5, 7))).scaled(k))
    assert scale(3, x)._operands[1][1] == 5


def test_clamp_basics():
    # exact operand: the lattice fast paths keep the whole clamp exact
    assert clamp(from_rat(5), 0, 1).exact == 1
    assert clamp(from_rat(Fraction(-1, 2)), 0, 1).exact == 0
    inside = clamp(below(Fraction(1, 2)), 0, 1)
    above = clamp(below(10), 0, 1)
    under = clamp(below(-3), 0, 1)
    for k in (2, 10, 30):
        eps = dyadic(k)
        v = inside.approximate(eps)
        assert 0 <= v <= 1 and abs(v - Fraction(1, 2)) <= eps
        assert abs(above.approximate(eps) - 1) <= eps
        assert abs(under.approximate(eps) - 0) <= eps
        assert 0 <= above.approximate(eps) <= 1
        assert 0 <= under.approximate(eps) <= 1


def test_clamp_rejects_empty_interval():
    with pytest.raises(ValueError):
        clamp(from_rat(0), 1, 0)


def test_bound_values():
    # a bound is 2**e, e the magnitude exponent: for a leaf, the least e
    # with |x.scaled(0)| + 2 <= 2**e; below(10)'s answer at k = 0 rounds
    # its approximant at 1/2, 10 - 1/4, to 10
    assert bound(from_rat(3)) == 8
    assert bound(from_rat(0)) == 2
    assert bound(below(10)) == 16
    # one rule for every kind of point: an exact point, an opaque limit
    # point, a below() leaf, a nullary operation and an operation, each
    # read on a fresh copy
    kinds = {
        "exact": lambda: from_rat(Fraction(-7, 3)),
        "opaque": lambda: below(Fraction(-7, 3)),
        "below": lambda: from_below(Fraction(-7, 3)),
        "nullary": lambda: _operation(None, lambda k: -(7 << k) // 3),
        "operation": lambda: add(from_below(Fraction(-7, 3)), below(5)),
    }
    for kind, make in kinds.items():
        e = _magnitude(make())
        assert bound(make()) == 2 ** e, kind
    assert bound(kinds["operation"]()) == 16


def test_bound_dominates_value():
    rng = random.Random(83)
    for _ in range(50):
        q = rand_rat(rng, 500, 40)
        assert bound(from_rat(q)) > abs(q)
        assert bound(below(q)) > abs(q)


def test_mul_examples():
    x = mul(below(2), below(3))
    for k in (1, 9, 40):
        assert abs(x.approximate(dyadic(k)) - 6) <= dyadic(k)


def test_mul_with_custom_valid_bounds():
    rng = random.Random(89)
    for _ in range(30):
        q, r = rand_rat(rng, 50, 15), rand_rat(rng, 50, 15)
        x, y = below(q), below(r)
        default = mul(below(q), below(r))
        padded = mul(x, y, x_bound=bound(x) + 7, y_bound=bound(y) + 7)
        eps = dyadic(rng.randint(0, 40))
        assert abs(default.approximate(eps) - q * r) <= eps
        assert abs(padded.approximate(eps) - q * r) <= eps
        assert abs(default.approximate(eps) - padded.approximate(eps)) <= 2 * eps


def test_mul_clip_engages_on_overshooting_approximant():
    # family 1 + eps approaches 1 from above; a tight non-strict bound of 1
    # forces the clip and the product still lands within eps
    y = limit(lambda eps: eta(1 + eps))
    x = below(Fraction(3))
    product = mul(x, y, y_bound=1)
    for k in (2, 12, 33):
        eps = dyadic(k)
        assert abs(product.approximate(eps) - 3) <= eps



def test_mul_bounds_do_not_depend_on_which_operand_is_walked_first():
    # x is built on y.  y's e is its leaf's, 1: below(9/20) answers 0 at
    # k = 0, and 0 + 2 <= 2**1.  x = y + 1 has the larger of y's e and 1's,
    # 2 (1 + 2 <= 2**2), plus the pair sum's own 1: 3.  So x is read at
    # k + 1 + 2 and y at k + 3 + 2, whether y's e is found first, by mul,
    # or on the walk from x, by bound; and neither operation is evaluated
    y = absolute(from_below(Fraction(9, 20)))
    x = add(y, ONE)
    product = mul(x, y)
    assert [offset for _, offset in product._operands] == [3, 5]
    assert x._memo is None and y._memo is None
    y = absolute(from_below(Fraction(9, 20)))
    x = add(y, ONE)
    assert bound(x) == 8
    assert [offset for _, offset in mul(x, y)._operands] == [3, 5]

def test_horner_chain_computes_its_shared_right_operand_once():
    # p = p*x + c in 8 steps, x the right operand of each product: the
    # innermost product asks x first, at the finest precision, and each
    # outer one is served from x's memo.  x's e is 1 (third(0) = 0) and 1's
    # is 2, so each product reads p at k + 3 and the sum above it reads the
    # product at k + 2: 5 bits a level.  The innermost product, 7 levels
    # below the outermost at 1002, reads x at 1037 + e(1) + 2 = 1041
    calls = []

    def third(k):
        calls.append(k)
        return ((1 << k) + 1) // 3

    x = _operation(None, third)
    p = ONE
    for _ in range(8):
        p = add(mul(p, x), ONE)
    assert calls == [0]     # building reads x once, at k = 0, for its e
    p.scaled(1000)
    assert calls == [0, 1041]


def test_building_a_horner_chain_evaluates_no_operation():
    # each product's bounds come from its operands' magnitude exponents:
    # the partial sums' follow from the products' and the constants', so
    # only the leaf x is read, once, at k = 0
    calls = []

    def third(k):
        calls.append(k)
        return ((1 << k) + 1) // 3

    x = _operation(None, third)
    p = ONE
    for c in range(64):
        p = add(mul(p, x), from_rat(c - 31))
    assert len(calls) <= 1
    operations, stack = [], [p]
    while stack:
        point = stack.pop()
        if getattr(point, "_operands", None):
            operations.append(point)
            stack.extend(y for y, _ in point._operands)
    assert len(operations) == 128
    assert all(point._memo is None for point in operations)


def test_mul_of_a_deep_operand_builds():
    # the magnitude walk is iterative: 5,000 negations of below(1) keep its
    # e, 2 (its answer at k = 0 is 1, and 1 + 2 <= 2**2)
    x = from_below(1)
    for _ in range(5000):
        x = neg(x)
    product = mul(x, x)
    assert [offset for _, offset in product._operands] == [4, 4]
    assert bound(x) == 4


def test_recip_exact_cases():
    w = ApartnessWitness(True, Fraction(1))
    assert recip_witnessed(from_rat(2), w).exact == Fraction(1, 2)
    w_neg = ApartnessWitness(False, Fraction(1))
    assert recip_witnessed(from_rat(-2), w_neg).exact == Fraction(-1, 2)
    # a smaller gap than necessary changes nothing on the fast path
    w_small = ApartnessWitness(True, Fraction(1, 4))
    assert recip_witnessed(from_rat(2), w_small).exact == Fraction(1, 2)


def test_recip_generic_positive_and_negative():
    x = below(2)
    w = find_apart_witness(x, 20)
    assert w is not None and w.positive
    r = recip_witnessed(x, w)
    for k in (3, 15, 45):
        assert abs(r.approximate(dyadic(k)) - Fraction(1, 2)) <= dyadic(k)
    z = below(-2)
    wz = find_apart_witness(z, 20)
    assert wz is not None and not wz.positive
    rz = recip_witnessed(z, wz)
    for k in (3, 15):
        assert abs(rz.approximate(dyadic(k)) + Fraction(1, 2)) <= dyadic(k)


def test_recip_witness_gap_independence():
    x = below(2)
    w = find_apart_witness(x, 20)
    quarter = ApartnessWitness(w.positive, w.gap / 4)
    r1 = recip_witnessed(below(2), w)
    r2 = recip_witnessed(below(2), quarter)
    for k in (2, 20):
        eps = dyadic(k)
        assert abs(r1.approximate(eps) - r2.approximate(eps)) <= 2 * eps


def test_mul_recip_gives_one():
    x = below(Fraction(22, 7))
    w = find_apart_witness(x, 30)
    product = mul(x, recip_witnessed(below(Fraction(22, 7)), w))
    for k in (2, 16, 50):
        eps = dyadic(k)
        assert abs(product.approximate(eps) - 1) <= 2 * eps


def test_witness_requires_positive_gap():
    with pytest.raises(ValueError):
        ApartnessWitness(True, Fraction(0))


def test_one_witness_per_search_and_none_per_verdict(monkeypatch):
    # a verdict's firing polls answer shared outcomes and make no witness;
    # a search makes one, from the scan's sign and least firing stage k, so
    # on leaves, whose stages read no memo, its gap is 2**-k for the first
    # k of a linear scan of the same stage rule, |x.scaled(k)| > 2
    made = []
    init = ApartnessWitness.__init__
    monkeypatch.setattr(ApartnessWitness, "__init__",
                        lambda self, positive, gap: made.append(gap) or init(self, positive, gap))
    for argv in (["sign", "--", "below(0) - 1/1000"], ["sign", "--fuel", "256", "--", "-1/3"],
                 ["compare", "--", "1/3", "below(1/3)"], ["compare", "1", "2"]):
        assert main(argv, io.StringIO(), io.StringIO()) == 0
    assert is_positive(sub(from_below(3), from_rat(Fraction(1, 7)))).run(200) == Done(True)
    assert compare_partial(from_below(1), below(1)).run(300) is PENDING
    assert made == []
    rng = random.Random(83)
    for _ in range(150):
        q = rand_rat(rng) * dyadic(rng.randint(0, 90))
        fuel = rng.randint(0, 200)
        for leaf in (from_rat(q), from_below(q)):
            made.clear()
            witness = find_apart_witness(leaf, fuel)
            first = next((k for k in range(fuel + 1) if abs(leaf.scaled(k)) > 2), None)
            if first is None:
                assert witness is None and made == []
            else:
                assert made == [dyadic(first)]
                assert (witness.positive, witness.gap) == (q > 0, dyadic(first))


def test_lt_rat_firing_stage_from_half():
    s = lt_rat_semidecide(from_rat(Fraction(1, 2)), Fraction(1))
    assert not fires(s, 2)
    assert fires(s, 3)


def test_lt_rat_never_fires_from_below_zero():
    s = lt_rat_semidecide(below(0), Fraction(0))
    assert not fires(s, 300)


def test_lt_rat_sound_on_samples():
    rng = random.Random(97)
    for _ in range(60):
        q = rand_rat(rng, 40, 12)
        x = below(q)
        target = q - Fraction(rng.randint(0, 50), 7)  # at or below the value
        assert not fires(lt_rat_semidecide(x, target), 80)


def test_lt_rat_complete_within_stage_bound():
    rng = random.Random(101)
    for _ in range(60):
        q = rand_rat(rng, 40, 12)
        gap = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        x = below(q)
        # value sits gap under the target; stages need 3 * 2^-k < gap
        fuel = first_k_with_margin(gap, 3)
        assert fires(lt_rat_semidecide(x, q + gap), fuel)


def test_lt_rat_verdict_at_fixed_fuel_reads_the_memo():
    # run() is sound and monotone in fuel, not pure: the same fuel confirms
    # x < 0 once a finer approximant of x sits in its memo.  Its own answer
    # at stage 10 is -2, which does not fire; the memo at k = 60 rounds to -3
    def fresh():
        return neg(below(Fraction(13, 5120)))

    assert fresh().scaled(10) == -2
    assert lt_rat_semidecide(fresh(), 0).run(10) is PENDING
    x = fresh()
    x.approximate(dyadic(60))
    assert x.scaled(10) == -3
    s = lt_rat_semidecide(x, 0)
    assert s.run(10) == Done(STAR)
    assert s.run(11) == Done(STAR)


class _BothRules(CompletionPoint):
    """An opaque point with an integer rule of its own, as reals._Below
    has: scaled overrides the opaque point's rounding and does not memoise
    its answers."""

    __slots__ = ("rule",)

    def __init__(self, approx, rule):
        super().__init__(approx)
        self.rule = rule

    def scaled(self, k):
        return self.rule(k)


def _recording_below_zero(polls):
    # from_below(0)'s rules, recording the stage index k of each integer
    # request; the integer rule is not memoised, so every poll of a stage
    # is recorded
    def scaled(k):
        polls.append(k)
        return 0

    return _BothRules(lambda eps: -eps / 2, scaled)


def test_lt_rat_polls_logarithmically_many_stages():
    # the full prefix scan polls all 257 stages 0..256
    polls = []
    s = lt_rat_semidecide(_recording_below_zero(polls), 0)
    assert s.run(256) is PENDING
    assert polls == [0, 64, 128, 256]
    # stage 12 is the first to fire on x < 2**-10; no stage past the larger
    # of 2*11 + 4 and the first coarse stage after 0
    polls = []
    s = lt_rat_semidecide(_recording_below_zero(polls), dyadic(10))
    assert s.run(256) == Done(STAR)
    assert max(polls) <= max(2 * 11 + 4, 64)


def test_lt_rat_growing_fuel_polls_each_stage_once():
    polls = []
    s = lt_rat_semidecide(_recording_below_zero(polls), 0)
    for n in range(65):
        assert s.run(n) is PENDING
    assert polls == list(range(65))
    assert s.run(40) is PENDING
    assert len(polls) == 65


def test_lt_rat_polls_the_stage_before_the_last():
    # integer answers for x = 2**-12 at the far edges of their allowance, 0
    # (below x) at even stages and 1 (above x) at odd ones: stage 10 is the
    # least to fire on x < q, which a run at fuel 11 must poll, and every
    # run gives the verdict of the full prefix scan of the same integer rule
    q = Fraction(5, 2) * dyadic(10)

    def wobbling(polls):
        def scaled(k):
            polls.append(k)
            return 1 << (k - 12) if k >= 12 else k % 2

        return _BothRules(lambda eps: dyadic(12), scaled)

    def full_scan(x):
        return full_prefix_scan(lambda k: TOP if (x.scaled(k) + 2) * dyadic(k) < q
                                else never())

    assert [full_scan(wobbling([])).run(n) for n in (9, 10)] == [PENDING, Done(STAR)]
    polls = []
    assert lt_rat_semidecide(wobbling(polls), q).run(11) == Done(STAR)
    assert polls == [0, 11, 6, 9, 10]
    for n in range(200):
        assert lt_rat_semidecide(wobbling([]), q).run(n) == full_scan(wobbling([])).run(n)


def test_is_positive_resolves_signs():
    p = is_positive(from_rat(1))
    assert p.run(6) == Done(True)
    n = is_positive(from_rat(-1))
    assert n.run(6) == Done(False)
    tiny = is_positive(from_rat(Fraction(-1, 10 ** 6)))
    assert tiny.run(64) == Done(False)


def test_is_positive_pending_on_zero():
    assert is_positive(from_rat(0)).run(2000) is PENDING
    assert is_positive(below(0)).run(500) is PENDING
    generic_zero = sub(below(1), below(1))
    assert is_positive(generic_zero).run(300) is PENDING


def test_compare_examples():
    lt = compare_partial(from_rat(0), from_rat(1))
    assert lt.run(16) == Done(True)
    gt = compare_partial(from_rat(Fraction(22, 7)), from_rat(Fraction(355, 113)))
    assert gt.run(64) == Done(False)
    same = compare_partial(from_rat(Fraction(1, 2)), below(Fraction(1, 2)))
    assert same.run(400) is PENDING


def test_compare_increment_fires_within_documented_fuel():
    rng = random.Random(103)
    for _ in range(25):
        q = rand_rat(rng, 30, 10)
        eps = Fraction(1, 2 ** rng.randint(0, 12))
        x = below(q)
        budget = first_k_with_margin(eps, 8) + 4
        out = compare_partial(x, add(below(q), from_rat(eps))).run(budget)
        assert out == Done(True)


def test_find_apart_witness_examples():
    w = find_apart_witness(from_rat(1), 8)
    assert w == ApartnessWitness(True, Fraction(1, 4))
    assert find_apart_witness(from_rat(0), 100) is None
    assert find_apart_witness(below(0), 100) is None


def test_find_apart_witness_sound(corpus):
    for entry in corpus:
        w = find_apart_witness(entry.build(), 64)
        if entry.value == 0:
            assert w is None
        elif w is not None:
            assert w.positive == (entry.value > 0)
            assert w.gap <= abs(entry.value)


def test_find_apart_witness_complete_for_apart_values():
    rng = random.Random(107)
    for _ in range(40):
        q = rand_rat(rng, 60, 20)
        if q == 0:
            continue
        fuel = first_k_with_margin(abs(q), 3)
        w = find_apart_witness(below(q), fuel)
        assert w is not None
        assert w.positive == (q > 0)
        assert w.gap <= abs(q)


def test_witness_polls_logarithmically_many_stages():
    # a point 2**-38 above zero, recording each request: stage 40 is the
    # first to pass, and the linear scan asks for all 41 stages 0..40
    def recording(polls):
        def approx(eps):
            polls.append(eps)
            return dyadic(38) - eps / 2

        return CompletionPoint(approx)

    polls = []
    assert find_apart_witness(recording(polls), 264) == ApartnessWitness(True, dyadic(40))
    assert len(polls) <= 20
    assert linear_witness(recording([]), 264) == ApartnessWitness(True, dyadic(40))


def test_cotransitivity_budget():
    # with x strictly under y, any z is either above x or below y, and the
    # join of the two semi-decisions confirms it within the documented fuel
    rng = random.Random(109)
    for _ in range(25):
        xv = rand_rat(rng, 30, 10)
        gap = Fraction(rng.randint(1, 64), 64)
        yv = xv + gap
        zv = rand_rat(rng, 40, 10)
        x, y, z1, z2 = below(xv), below(yv), below(zv), below(zv)
        x_lt_z = lt_rat_semidecide(sub(x, z1), Fraction(0))
        z_lt_y = lt_rat_semidecide(sub(z2, y), Fraction(0))
        budget = first_k_with_margin(gap, 8) + 4
        assert fires(join_sier(x_lt_z, z_lt_y), budget)


def test_positive_product_of_witnessed_positives():
    rng = random.Random(113)
    for _ in range(20):
        q = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        r = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        x, y = below(q), below(r)
        wx, wy = find_apart_witness(x, 64), find_apart_witness(y, 64)
        assert wx.positive and wy.positive
        fuel = first_k_with_margin(q * r, 3) + 1
        assert is_positive(mul(below(q), below(r))).run(fuel) == Done(True)


def _approx_eq(a, b, eps, slack=2):
    return abs(a.approximate(eps) - b.approximate(eps)) <= slack * eps


def test_identity_suite_spot_checks():
    rng = random.Random(127)
    eps = dyadic(16)
    for _ in range(10):
        qx, qy, qz = rand_rat(rng, 40, 12), rand_rat(rng, 40, 12), rand_rat(rng, 40, 12)
        x, y, z = below(qx), below(qy), below(qz)
        assert _approx_eq(add(x, y), add(y, x), eps)
        assert _approx_eq(add(add(x, y), z), add(x, add(y, z)), eps)
        assert _approx_eq(mul(x, y), mul(y, x), eps)
        assert _approx_eq(mul(mul(x, y), z), mul(x, mul(y, z)), eps)
        assert _approx_eq(mul(x, add(y, z)), add(mul(x, y), mul(x, z)), eps)
        assert abs(add(x, neg(x)).approximate(eps)) <= 2 * eps
        assert _approx_eq(mul(x, ONE), x, eps)
        assert _approx_eq(join(x, meet(x, y)), x, eps)
        assert _approx_eq(meet(x, join(x, y)), x, eps)
        assert _approx_eq(join(x, join(join(x, y), z)), join(join(x, y), z), eps)
        lhs = absolute(sub(mul(x, y), mul(x, z)))
        rhs = mul(absolute(x), absolute(sub(y, z)))
        assert _approx_eq(lhs, rhs, eps, slack=4)


def test_uncurried_continuity_of_mul():
    rng = random.Random(131)
    for _ in range(15):
        qu, qv = rand_rat(rng, 30, 10), rand_rat(rng, 30, 10)
        u1, v1 = below(qu), below(qv)
        eps = dyadic(rng.randint(2, 24))
        big = max(bound(u1), bound(v1))
        delta = min(Fraction(1), eps / (2 * (big + 1)))
        shift = delta * Fraction(99, 100)
        u2 = add(below(qu), from_rat(shift))
        v2 = add(below(qv), from_rat(-shift))
        a = mul(below(qu), below(qv)).approximate(eps)
        b = mul(u2, v2).approximate(eps)
        assert abs(a - b) <= 3 * eps


def test_from_below_routes():
    # the public answer is limit's rule; the integer one rounds it at 2**-(k+1)
    q = Fraction(22, 7)
    x = from_below(q)
    for k in (0, 5, 40):
        eps = dyadic(k)
        assert x.approximate(eps) == q - eps / 2
        assert x.scaled(k) == round((q - dyadic(k + 2)) * 2 ** k)


def test_integer_answers_within_strict_error():
    rng = random.Random(137)
    for _ in range(40):
        q, r = rand_rat(rng, 60, 20), rand_rat(rng, 60, 20)
        points = [
            (add(from_below(q), below(r)), q + r),
            (neg(from_below(q)), -q),
            (join(below(q), from_below(r)), max(q, r)),
            (mul(from_below(q), below(r)), q * r),
            (scale(q, from_below(r)), q * r),
        ]
        if r != 0:
            w = find_apart_witness(below(r), 64)
            points.append((recip_witnessed(from_below(r), w), 1 / r))
        for k in (0, 3, 64):
            for point, value in points:
                assert abs(point.scaled(k) - value * 2 ** k) < 1


def test_memo_serves_coarser_integer_requests_by_rounding():
    x = add(from_below(Fraction(1, 3)), from_below(Fraction(1, 3)))
    fine = x.scaled(40)
    assert x.scaled(10) == (fine + 2 ** 29) >> 30
    # the public route keeps serving the finer answer unrounded
    assert x.approximate(dyadic(10)) == Fraction(fine, 2 ** 40)


def test_dropped_points_need_no_cycle_collector():
    # points hold their operands, never themselves: reference counting alone
    # frees a dropped real and every node under it
    def live_points():
        return sum(isinstance(o, CompletionPoint) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_points()
        x = build_real(parse(" + ".join(["below(1/3)"] * 300)))
        assert abs(x.approximate(dyadic(64)) - 100) <= dyadic(64)
        del x
        after = live_points()
    finally:
        gc.enable()
    assert after == before


def test_below_never_reports_its_value_through_its_own_approximate():
    # the first half of from_below's contract: approximate answers q - eps/2
    # on a fresh point, or a finer memoised answer below q as well
    precisions = (dyadic(0), dyadic(10), Fraction(1, 3), dyadic(300))
    for q in (Fraction(1), Fraction(-2, 3), Fraction(5, 4)):
        for eps in precisions:
            assert from_below(q).approximate(eps) == q - eps / 2
        x = from_below(q)
        assert all(x.approximate(eps) < q for eps in precisions)


def test_below_may_report_its_value_through_its_integer_answers():
    # the second half: scaled rounds onto the grid, which holds q itself when
    # q is a grid point, and operations reading scaled pass that on
    for k in (0, 1, 10, 300):
        assert from_below(1).scaled(k) == 2 ** k
        assert from_below(Fraction(-3, 4)).scaled(k + 2) == -3 << k
    assert build_real(parse("below(1) * 1")).approximate(dyadic(10)) == 1
    assert build_real("below(1) * 1").approximate(dyadic(10)) == 1


_LEAF_PAIRS = [(1, 3), (-7, 3), (0, 1), (5, 1), (-5, 4),
               (10 ** 39 + 7, 3 * 10 ** 39 + 1), (-(10 ** 39 + 7), 3 * 10 ** 39 + 1)]


@pytest.mark.parametrize("n, d", _LEAF_PAIRS)
def test_below_leaf_answers_its_rules_from_its_pair(n, d):
    # scaled(k) is floor(n * 2**k / d + 1/4), q - 2**-(k+2) rounded at
    # 2**-(k+1); approximate is q - eps/2 and memoizes, as any opaque point
    q = Fraction(n, d)
    leaf = _Below(n, d)
    for k in range(201):
        assert leaf.scaled(k) == math.floor(Fraction(n << k, d) + Fraction(1, 4))
    # finest last, so the memo serves none of these
    for eps in (Fraction(1), Fraction(1, 3), dyadic(10), dyadic(300)):
        assert leaf.approximate(eps) == q - eps / 2 != q
    # a coarser request after the finest is served its memoized answer
    for eps in (dyadic(10), Fraction(1, 3), Fraction(5)):
        assert leaf.approximate(eps) == q - dyadic(300) / 2
    assert leaf.space is RATIONALS
    for eps in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="precision must be strictly positive"):
            leaf.approximate(eps)


def test_below_leaf_holds_no_function_and_no_cell():
    # one object: its rules are methods of its class, not closures over n, d
    leaf = from_below(Fraction(-2, 3))
    assert type(leaf) is _Below and isinstance(leaf, CompletionPoint)
    leaf.approximate(dyadic(5))
    for referent in gc.get_referents(leaf):
        assert not isinstance(referent, (types.FunctionType, types.MethodType, types.CellType))
