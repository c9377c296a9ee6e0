"""Self-tests of the benchmark: generators, verifier and metric names.

    python3 -m pytest bench/test_bench.py
"""

import json

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import verify
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_long_sums_stay_a_small_share_of_wide_lowprec():
    ops = workloads.generate("wide_lowprec", 1)
    long_sums = [op for op in ops if op.label == "long_sum"]
    assert 0 < len(long_sums) / len(ops) < 0.1


def test_rendered_sums_parse_into_the_tree_they_came_from():
    node = ("*", ("sum", [("below", Fraction(1, 3)), ("lit", Fraction(2))]),
            ("max", ("lit", Fraction(5, 7)), ("below", Fraction(0))))
    assert workloads.render(node) == "((below(1/3) + 2) * max(5/7, below(0)))"
    assert workloads.exact_value(node) == Fraction(7, 3) * Fraction(5, 7)


def _enclosure(lo, hi, prec):
    # decimals rounded outward to three digits, as the CLI renders them
    lo_dec = Fraction(lo * 1000 // 1, 1000)
    hi_dec = Fraction(-(-hi * 1000 // 1), 1000)
    return "eps=1/%d\nlo=%s\nhi=%s\nlo.decimal=%.3f\nhi.decimal=%.3f\n" % (
        2 ** prec, lo, hi, lo_dec, hi_dec)


EVAL_OP = workloads.Op("eval", ("1/3",), (Fraction(1, 3),),
                       "test", prec=4)


def test_verifier_accepts_a_correct_enclosure():
    lo, hi = Fraction(1, 3) - Fraction(1, 16), Fraction(1, 3) + Fraction(1, 16)
    assert verify.check(EVAL_OP, _enclosure(lo, hi, 4)) is None


def test_verifier_rejects_a_shifted_enclosure():
    shift = Fraction(1, 7)
    lo, hi = Fraction(1, 3) - Fraction(1, 16) + shift, Fraction(1, 3) + Fraction(1, 16) + shift
    assert "misses" in verify.check(EVAL_OP, _enclosure(lo, hi, 4))


@pytest.mark.parametrize("delta", [Fraction(-1, 10 ** 9), Fraction(1, 10 ** 9)])
def test_verifier_rejects_an_off_by_one_width(delta):
    lo, hi = Fraction(1, 3) - Fraction(1, 16), Fraction(1, 3) + Fraction(1, 16) + delta
    assert "width" in verify.check(EVAL_OP, _enclosure(lo, hi, 4))


def test_verifier_rejects_inward_rounded_decimals():
    lo, hi = Fraction(1, 3) - Fraction(1, 16), Fraction(1, 3) + Fraction(1, 16)
    text = _enclosure(lo, hi, 4).replace("lo.decimal=0.270", "lo.decimal=0.271")
    assert "decimal" in verify.check(EVAL_OP, text)


def test_verifier_checks_verdicts_against_the_exact_sign():
    sign = workloads.Op("sign", ("x",), (Fraction(-1, 2 ** 200),), "test", fuel=256)
    assert verify.check(sign, "verdict=negative\nfuel=256\n") is None
    assert verify.check(sign, "verdict=positive\nfuel=256\n") is not None
    assert verify.check(sign, "verdict=unknown\nfuel=256\n") is not None
    equal = workloads.Op("compare", ("x", "y"), (Fraction(1, 2), Fraction(1, 2)), "test", fuel=256)
    assert verify.check(equal, "verdict=unknown\nfuel=256\n") is None
    assert verify.check(equal, "verdict=lt\nfuel=256\n") is not None
    assert verify.check(replace(equal, values=(Fraction(1), Fraction(2))),
                        "verdict=lt\nfuel=256\n") is None


def test_verifier_reads_answers_past_the_int_to_str_limit():
    big = Fraction(3 ** 10000, 2 ** 16000)
    op = replace(EVAL_OP, prec=16000, values=(big,))
    eps = Fraction(1, 2 ** 16000)
    # the limit is lifted only to build this text; check must lift it itself
    with verify._unlimited_int_digits():
        text = "eps=1/%d\nlo=%s\nhi=%s\nlo.decimal=0\nhi.decimal=1\n" % (
            2 ** 16000, big - eps, big + eps)
    assert verify.check(op, text) is None


def test_tally_counts_each_op_once_under_its_first_failure():
    ok = _enclosure(Fraction(1, 3) - Fraction(1, 16), Fraction(1, 3) + Fraction(1, 16), 4)
    tally = run.Tally([EVAL_OP, replace(EVAL_OP, label="other")])
    for _ in range(3):
        assert tally.add(0, "exit0", ok)
    assert not tally.add(1, "RecursionError", "")
    assert not tally.add(1, "exit0", "eps=1/16\n")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures == {"RecursionError": 1}
    assert len(tally.wrong) == 1


def test_normalise_expresses_wall_time_in_kernel_runs():
    assert reference.normalise(0.2, 0.1, 0.3) == pytest.approx(reference.REFERENCE_SECONDS)
    for kernel in reference.KERNELS.values():
        assert reference.seconds(kernel) > 0


def test_every_workload_names_a_reference_kernel():
    assert set(workloads.REFERENCE_KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_KERNEL.values()) <= set(reference.KERNELS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
