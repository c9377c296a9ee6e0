import random

from fractions import Fraction

import pytest

from cauchyreal import RATIONALS, LipschitzFn, QPos, dyadic

from oracles import check_cauchy, check_limit, check_lipschitz, dyadic_pairs, modulus


def test_rationals_carrier_matches_close_q():
    assert RATIONALS.close(Fraction(1, 2), Fraction(0), Fraction(1, 4))
    assert not RATIONALS.close(Fraction(1, 4), Fraction(0), Fraction(1, 4))


def test_dyadic_pairs_sampler():
    rng = random.Random(3)
    pairs = dyadic_pairs(50, rng)
    assert len(pairs) == 50
    for e, d in pairs:
        assert Fraction(1, 2 ** 32) <= e <= 1
        assert Fraction(1, 2 ** 32) <= d <= 1


def test_check_cauchy_accepts_from_below():
    q = Fraction(5, 3)
    rng = random.Random(5)
    assert check_cauchy(lambda e: q - e, RATIONALS, dyadic_pairs(100, rng))


def test_check_cauchy_rejects_blowup():
    # x(eps) = 1/eps: at (1, 1/4) the values 1 and 4 sit 3 apart, over 5/4
    x = lambda e: 1 / e
    assert not check_cauchy(x, RATIONALS, [(Fraction(1), Fraction(1, 4))])


def test_check_cauchy_needs_samples():
    with pytest.raises(ValueError):
        check_cauchy(lambda e: e, RATIONALS, [])


def test_check_limit_accepts_true_limit():
    q = Fraction(-7, 4)
    samples = [(dyadic(i), dyadic(i)) for i in range(0, 34)]
    assert check_limit(q, lambda e: q - e, RATIONALS, samples)


def test_check_limit_rejects_offset_candidate():
    q = Fraction(-7, 4)
    samples = [(dyadic(i), dyadic(i)) for i in range(0, 34)]
    assert not check_limit(q + Fraction(1, 1000), lambda e: q - e, RATIONALS, samples)


def test_limit_uniqueness_within_sample_resolution():
    # two candidates that both pass samples this fine must be close at
    # every tolerance the samples dominate
    q = Fraction(9, 7)
    x = lambda e: q - e
    samples = [(dyadic(i), dyadic(i)) for i in range(0, 35)]
    l1, l2 = q, q + Fraction(1, 2 ** 40)
    assert check_limit(l1, x, RATIONALS, samples)
    assert check_limit(l2, x, RATIONALS, samples)
    for k in range(0, 33):
        assert RATIONALS.close(dyadic(k), l1, l2)


def test_check_lipschitz_accepts_doubling_with_constant_two():
    f = lambda q: 2 * q
    rng = random.Random(9)
    samples = []
    for _ in range(100):
        eps = QPos(rng.randint(1, 16), rng.randint(1, 16))
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        y = x + eps * Fraction(rng.randint(-99, 99), 100)
        samples.append((eps, x, y))
    assert check_lipschitz(f, Fraction(2), RATIONALS, RATIONALS, samples)


def test_check_lipschitz_rejects_understated_constant():
    # doubling claimed non-expanding: (1, 0, 3/4) maps to |0 - 3/2| >= 1
    f = lambda q: 2 * q
    sample = [(Fraction(1), Fraction(0), Fraction(3, 4))]
    assert not check_lipschitz(f, Fraction(1), RATIONALS, RATIONALS, sample)


def test_check_lipschitz_rejects_bad_precondition():
    f = lambda q: q
    with pytest.raises(ValueError):
        check_lipschitz(f, Fraction(1), RATIONALS, RATIONALS,
                        [(Fraction(1, 4), Fraction(0), Fraction(1))])


def test_modulus_from_constant():
    f = LipschitzFn(lambda q: 2 * q, Fraction(2))
    assert modulus(f)(Fraction(1)) == Fraction(1, 2)
    assert modulus(f)(Fraction(1, 8)) == Fraction(1, 16)


def test_modulus_delivers_output_tolerance():
    constant = Fraction(3)
    f = LipschitzFn(lambda q: 3 * q - 1, constant)
    rng = random.Random(15)
    for _ in range(100):
        eps = QPos(rng.randint(1, 24), rng.randint(1, 24))
        delta = modulus(f)(eps)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        y = x + delta * Fraction(rng.randint(-99, 99), 100)
        assert RATIONALS.close(delta, x, y)
        assert RATIONALS.close(eps, f(x), f(y))


def test_checkers_evaluate_each_precision_once():
    # the checkers probe coarse to fine so memoizing procedures cannot
    # satisfy pairs by replaying one cached fine answer
    seen = []
    q = Fraction(1, 3)

    def x(eps):
        seen.append(eps)
        return q - eps

    samples = [(dyadic(3), dyadic(1)), (dyadic(1), dyadic(5)), (dyadic(3), dyadic(5))]
    assert check_cauchy(x, RATIONALS, samples)
    assert seen == sorted(set(seen), reverse=True)
    assert len(seen) == 3
