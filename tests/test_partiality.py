import random

from cauchyreal import (Done, PENDING, STAR, TOP, countable_sup, fires,
                        interleave, join_sier, map_partial, never, now,
                        sup_seq)
from cauchyreal.partiality import lag_two_sup


def delayed(k, value=STAR):
    """A computation that first becomes Done(value) at fuel k."""
    return sup_seq(lambda n: now(value) if n >= k else never())


def outcomes(p, max_fuel=64):
    return [p.run(n) for n in range(max_fuel + 1)]


def assert_monotone(p, max_fuel=64):
    done = None
    for out in outcomes(p, max_fuel):
        if done is None:
            if out is not PENDING:
                done = out
        else:
            assert out == done


def test_now_done_at_zero():
    p = now(42)
    assert p.run(0) == Done(42)
    assert p.run(100) == Done(42)


def test_never_pending_everywhere():
    p = never()
    assert p.run(0) is PENDING
    assert p.run(10 ** 6) is PENDING


def test_top_is_unit_truth():
    assert TOP.run(0) == Done(STAR)
    assert fires(TOP, 0)
    assert not fires(never(), 10 ** 4)


def test_sup_seq_fires_at_threshold():
    p = delayed(5, "a")
    assert [p.run(n) is PENDING for n in range(5)] == [True] * 5
    assert p.run(5) == Done("a")
    assert p.run(64) == Done("a")


def test_monotonicity_across_family():
    family = [now(1), never(), delayed(1), delayed(5), delayed(33), delayed(64),
              countable_sup(lambda m: delayed(m + 2))]
    for p in family:
        assert_monotone(p)


def test_map_preserves_firing_fuel():
    p = delayed(7, 3)
    q = map_partial(lambda v: v * 2, p)
    assert q.run(6) is PENDING
    assert q.run(7) == Done(6)


def test_map_identity_observational():
    for p in (now("x"), never(), delayed(9, "y")):
        q = map_partial(lambda v: v, p)
        assert outcomes(q) == outcomes(p)


def test_map_composition():
    p = delayed(4, 10)
    f = lambda v: v + 1
    g = lambda v: v * 3
    lhs = map_partial(g, map_partial(f, p))
    rhs = map_partial(lambda v: g(f(v)), p)
    assert outcomes(lhs) == outcomes(rhs)


def test_map_constant_cases():
    assert map_partial(lambda _: False, TOP).run(0) == Done(False)
    assert map_partial(lambda v: v, never()) is never()


def test_join_units_and_idempotence():
    b = delayed(3)
    assert outcomes(join_sier(never(), b)) == outcomes(b)
    assert outcomes(join_sier(b, never())) == outcomes(b)
    assert join_sier(never(), TOP).run(0) == Done(STAR)
    assert outcomes(join_sier(b, b)) == outcomes(b)


def test_join_takes_earlier_firing():
    a, b = delayed(3), delayed(7)
    j = join_sier(a, b)
    assert not fires(j, 2)
    assert fires(j, 3)
    assert j.run(64) == Done(STAR)
    assert outcomes(join_sier(a, b)) == outcomes(join_sier(b, a))


def test_join_associative_observationally():
    a, b, c = delayed(2), delayed(11), delayed(40)
    lhs = join_sier(join_sier(a, b), c)
    rhs = join_sier(a, join_sier(b, c))
    assert outcomes(lhs) == outcomes(rhs)


def test_join_is_least_upper_bound():
    # order here is observational: p below q iff p firing implies q firing
    # at the same fuel; the join fires exactly when either component does
    a, b = delayed(5), delayed(9)
    j = join_sier(a, b)
    for n in range(65):
        assert fires(j, n) == (fires(a, n) or fires(b, n))


def test_countable_sup_single_firing_stage():
    s = countable_sup(lambda m: TOP if m == 5 else never())
    assert not fires(s, 4)
    assert s.run(5) == Done(STAR)
    assert fires(s, 64)


def test_countable_sup_never_fires():
    s = countable_sup(lambda m: never())
    assert not fires(s, 300)


def test_countable_sup_matches_prefix_join_oracle():
    # diagonal semantics: Done at n iff some f(m), m <= n, is Done at n;
    # polled in shuffled fuel order so the cache has to answer honestly
    def fresh(m):
        return delayed(m + 2)

    s = countable_sup(fresh)
    fuels = list(range(65))
    random.Random(23).shuffle(fuels)
    for n in fuels:
        expected = any(fires(fresh(m), n) for m in range(n + 1))
        assert fires(s, n) == expected
    assert not fires(s, 1)
    assert fires(s, 2)


def test_countable_sup_low_fuel_after_high():
    s = countable_sup(lambda m: delayed(m + 2))
    assert fires(s, 10)
    assert not fires(s, 1)


def test_countable_sup_stage_needs_index_below_fuel():
    # a stage that is instantly Done still waits for fuel to reach its index
    s = countable_sup(lambda m: TOP if m == 9 else never())
    assert not fires(s, 8)
    assert fires(s, 9)


def test_countable_sup_stops_at_first_firing_stage():
    calls = []

    def stage(m):
        calls.append(m)
        return TOP if m >= 5 else never()

    s = countable_sup(stage)
    assert s.run(256) == Done(STAR)
    assert s.run(300) == Done(STAR)
    assert len(calls) <= 6


def test_interleave_constant_shortcuts():
    a = interleave(TOP, never())
    assert a.run(0) == Done(True)
    b = interleave(never(), TOP)
    assert b.run(0) == Done(False)
    assert interleave(never(), never()).run(10 ** 4) is PENDING


def test_interleave_first_argument_wins_ties():
    assert interleave(TOP, TOP).run(0) == Done(True)


def test_interleave_truth_table_exhaustive():
    firings = [None, 0, 1, 5, 33, 64]  # None = never
    for ka in firings:
        for kb in firings:
            if ka is not None and kb is not None:
                continue  # both firing violates the disjointness contract
            a = never() if ka is None else delayed(ka)
            b = never() if kb is None else delayed(kb)
            p = interleave(a, b)
            for n in range(65):
                if ka is not None and n >= ka:
                    assert p.run(n) == Done(True)
                elif kb is not None and n >= kb:
                    assert p.run(n) == Done(False)
                else:
                    assert p.run(n) is PENDING


def _lag_two_stages(least, next_fires, polls):
    # stage least fires, least + 1 as next_fires says, and every later one
    def stage(k):
        polls.append(k)
        if k == least or k >= least + 2 or (next_fires and k == least + 1):
            return now(k)
        return never()

    return stage


def test_lag_two_sup_answers_the_least_firing_stage():
    # the full prefix scan's outcome at fuel n: the value of the least stage
    # m <= n that fires, found in O(log n) polls
    for least in range(70):
        for next_fires in (False, True):
            for n in range(81):
                polls = []
                s = lag_two_sup(_lag_two_stages(least, next_fires, polls))
                assert s.run(n) == (Done(least) if n >= least else PENDING)
                assert len(polls) <= 2 * n.bit_length() + 3
                assert s.run(n + 1) == (Done(least) if n + 1 >= least else PENDING)


def test_lag_two_sup_keeps_its_outcome():
    polls = []
    s = lag_two_sup(_lag_two_stages(37, False, polls))
    assert s.run(200) == Done(37)
    assert s.run(36) is PENDING
    assert s.run(37) == Done(37)
    polls.clear()
    assert s.run(10 ** 6) == Done(37)
    assert polls == []
