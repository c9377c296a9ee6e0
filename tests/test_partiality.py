import random
import sys
import threading

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cauchyreal import (Done, PENDING, STAR, TOP, countable_sup, fires,
                        from_rat, interleave, is_positive, join_sier,
                        map_partial, never, now, sup_seq)
from cauchyreal.partiality import monotone_sup

from oracles import full_prefix_scan


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


def _monotone_stages(least, polls):
    # stage least fires, and every later one
    def stage(k):
        polls.append(k)
        return now(k) if k >= least else never()

    return stage


def test_monotone_sup_answers_the_least_firing_stage():
    # the full prefix scan's outcome at fuel n: the value of the least stage
    # m <= n that fires, found in O(log n) polls
    for least in range(70):
        for n in range(81):
            polls = []
            s = monotone_sup(_monotone_stages(least, polls))
            assert s.run(n) == (Done(least) if n >= least else PENDING)
            assert len(polls) <= 2 * n.bit_length() + 1
            assert s.run(n + 1) == (Done(least) if n + 1 >= least else PENDING)


def test_monotone_sup_polls_each_stage_at_most_once_per_run():
    # including a second run at higher fuel after a pending first one
    for least in range(70):
        for n in range(81):
            polls = []
            s = monotone_sup(_monotone_stages(least, polls))
            for fuel in (n, n + 1):
                polls.clear()
                assert s.run(fuel) == (Done(least) if fuel >= least else PENDING)
                assert len(polls) == len(set(polls))


def test_monotone_sup_keeps_its_outcome():
    polls = []
    s = monotone_sup(_monotone_stages(37, polls))
    assert s.run(200) == Done(37)
    assert s.run(36) is PENDING
    assert s.run(37) == Done(37)
    polls.clear()
    assert s.run(10 ** 6) == Done(37)
    assert polls == []


def test_monotone_sup_at_growing_fuel_polls_only_the_new_stage():
    polls = []
    s = monotone_sup(_monotone_stages(10 ** 6, polls))
    for fuel in range(201):
        polls.clear()
        assert s.run(fuel) is PENDING
        assert polls == [fuel]


def test_countable_sup_at_growing_fuel_makes_one_stage_per_run():
    made = []

    def stage(m):
        made.append(m)
        return never()

    s = countable_sup(stage)
    for fuel in range(201):
        assert s.run(fuel) is PENDING
        assert made == list(range(fuel + 1))


def _stage_table(table, made):
    # None is never(), "top" is TOP and k is a stage that fires at fuel k;
    # indices past the table are never()
    def stage(m):
        made.append(m)
        entry = table[m] if m < len(table) else None
        if entry is None:
            return never()
        return TOP if entry == "top" else delayed(entry)

    return stage


_FUELS = list(range(97))
_ENTRIES = st.one_of(st.none(), st.none(), st.just("top"),
                     st.integers(min_value=0, max_value=120))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(_ENTRIES, max_size=100),
       st.one_of(st.just(_FUELS), st.just(_FUELS[::-1]), st.permutations(_FUELS)))
def test_countable_sup_gives_the_full_scan_outcome(table, fuels):
    made = []
    s = countable_sup(_stage_table(table, made))
    reference = full_prefix_scan(_stage_table(table, []))
    for n in fuels:
        assert s.run(n) == reference.run(n)
    assert len(made) == len(set(made))


def test_scans_shared_across_threads():
    # Four threads run one countable_sup and one is_positive at shuffled
    # fuels; every answer is the single-threaded one, and each stage of the
    # countable_sup is made once.
    table = [None, None, 40, None, None, 25] + [None] * 30 + ["top"]
    x = from_rat(Fraction(-3, 2 ** 20))
    fuels = list(range(97))
    expected = [(countable_sup(_stage_table(table, [])).run(n),
                 is_positive(x).run(n)) for n in fuels]
    made = []
    shared = countable_sup(_stage_table(table, made)), is_positive(x)
    barrier = threading.Barrier(4, timeout=30)
    results = {}

    def work(seed):
        order = fuels[:]
        random.Random(seed).shuffle(order)
        barrier.wait()
        results[seed] = {n: tuple(p.run(n) for p in shared) for n in order}

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
        assert [results[seed][n] for n in fuels] == expected
    assert sorted(made) == list(range(len(made)))
