"""Benchmark of the creal CLI: one closed-loop caller, checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src; without
it the benchmark exits non-zero before printing a result.

--trace 0 drives cauchyreal.cli.main(argv, out, err) in-process, one op
after another in one thread, for S seconds, and prints the end-to-end
metrics.  --trace 1 runs the same ops through the pipeline's public functions
one by one under a trace hook and prints the per-layer metrics; it checks
that every traced outcome equals the untraced one and that the counts repeat
exactly on every traced round.

The end-to-end times are in reference time (reference.py): each wall time
is divided by the time of a fixed stdlib kernel run beside it, so that the
shared machine's changes of speed cancel out.  Set-up is measured against
the Fraction kernel, the ops against the kernel their workload names.  The
info line gives the wall times as well.

Every answer is checked against exact values computed by workloads.py.  The
last stdout line is one JSON object with keys correct, attempted, failed and
metrics; the line before it records the seed, machine and failures by type.
attempted counts the ops of the cycle and failed those of them that raised,
exited non-zero or answered wrongly on any run, so both depend on the
workload alone, not on how many runs fit in the seconds.  A wrong answer sets
correct to false and the exit code to 1.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types

from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
MIN_TRACE_ROUNDS = 2

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rational.answer_den_bits": "bits",
    "rational.max_den_bits": "bits",
    "rational.den_bits_per_k": "ratio",
    "completion.approx_calls": "count",
    "completion.memo_hits": "count",
    "completion.memo_hit_ratio": "ratio",
    "completion.approx_ms": "ms",
    "partiality.run_ms": "ms",
    "partiality.stages_evaluated": "count",
    "partiality.fired_stage": "count",
    "partiality.useful_stage_ratio": "ratio",
    "reals.witness_ms": "ms",
    "reals.witness_stages": "count",
    "expressions.parse_ms": "ms",
    "expressions.ast_nodes": "count",
    "expressions.build_ms": "ms",
    "cli.format_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    pass


def _import_package():
    for name in [m for m in sys.modules if m == "cauchyreal" or m.startswith("cauchyreal.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("cauchyreal")
    except ImportError as exc:
        raise SetupError("cannot import cauchyreal from %s: %s" % (ROOT / "src", exc))
    origin = Path(package.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SetupError("cauchyreal was imported from %s, not from this checkout" % origin)
    return package


def setup(workload, seed, info):
    """Import the package and generate the inputs, several times; the run
    uses the modules of the last import.  Returns (api, ops, median seconds
    in reference time)."""
    sys.path.insert(0, str(ROOT / "src"))
    seconds, wall = [], []
    kernel = reference.fraction_kernel
    before = reference.seconds(kernel)
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        package = _import_package()
        ops = workloads.generate(workload, seed)
        elapsed = perf_counter() - start
        after = reference.seconds(kernel)
        seconds.append(reference.normalise(elapsed, before, after))
        wall.append(elapsed)
        before = after
    info["wall_setup_s"] = statistics.median(wall)
    cli = sys.modules["cauchyreal.cli"]
    api = types.SimpleNamespace(
        main=cli.main, decimal_digits=cli.decimal_digits, format_decimal=cli.format_decimal,
        **{name: getattr(package, name) for name in (
            "parse", "build_real", "dyadic", "format_rat", "is_positive",
            "compare_partial", "PENDING", "TOP", "ParseError", "WitnessSearchError",
            "CompletionPoint", "find_apart_witness", "lt_rat_semidecide")})
    return api, ops, statistics.median(seconds)


class Tally:
    """Outcomes of the ops of one cycle.  An op fails if any of its runs
    raised, exited non-zero or answered wrongly; it is reported under the
    type of its first failure.  Counting ops, not runs, makes attempted and
    failed independent of how many runs fit in the seconds."""

    def __init__(self, ops):
        self.ops = ops
        self.first_failure = {}
        self.wrong = []

    def add(self, i, status, stdout):
        """Record one run of ops[i]; True if it answered correctly."""
        op = self.ops[i]
        if status == "exit0":
            problem = verify.check(op, stdout)
            if problem is None:
                return True
            status = "wrong_answer"
            self.wrong.append("%s %s: %s" % (op.label, " ".join(op.argv)[:200], problem))
        self.first_failure.setdefault(i, status)
        return False

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return len(self.first_failure)

    @property
    def failures(self):
        return Counter(self.first_failure.values())


def _deciles(values):
    return statistics.quantiles(values, n=10, method="inclusive")


def timed_run(api, ops, kernel, seconds, tally, info):
    """End-to-end metrics of a closed loop that cycles through ops for the
    given seconds.

    The reference kernel runs between every two ops, and each run of an op
    is normalised by the kernel's time just before and just after it.  An
    op's time is the median of its normalised runs.  Latency percentiles are
    taken over these per-op medians, and throughput is the number of
    verified-correct ops of a cycle over the sum of all the ops' medians:
    failed ops add their time but no work.
    """
    for i, op in enumerate(ops):  # warm-up pass, untimed; it records each op's outcome
        status, stdout, _ = tracing.run_cli(api.main, op.argv)
        tally.add(i, status, stdout)
        reference.seconds(kernel)
    runs = [[] for _ in ops]
    wall = [[] for _ in ops]
    kernel_s = []
    samples = 0
    before = reference.seconds(kernel)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for i, op in enumerate(ops):
            status, stdout, elapsed = tracing.run_cli(api.main, op.argv)
            after = reference.seconds(kernel)
            runs[i].append(reference.normalise(elapsed, before, after))
            wall[i].append(elapsed)
            kernel_s.append(after)
            before = after
            samples += 1
            tally.add(i, status, stdout)
            if perf_counter() >= deadline:
                break
    timed = [statistics.median(r) for r in runs if r]
    wall_timed = [statistics.median(r) for r in wall if r]
    ok = sum(1 for i, r in enumerate(runs) if r and i not in tally.first_failure)
    deciles = _deciles([1000 * t for t in timed])
    wall_deciles = _deciles([1000 * t for t in wall_timed])
    info["samples"] = samples
    info["timed_ops"] = len(timed)
    info["runs_per_op"] = min(len(r) for r in runs if r)
    info["reference_ms"] = 1000 * statistics.median(kernel_s)
    info["wall_ops_per_s"] = ok / sum(wall_timed)
    info["wall_op_ms.p50"] = wall_deciles[4]
    info["wall_op_ms.p90"] = wall_deciles[8]
    return {
        "ops_per_s": ok / sum(timed),
        "op_ms.p50": deciles[4],
        "op_ms.p90": deciles[8],
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(ops, timed, counted):
    """Per-layer metrics of one round, as means per op unless noted.

    timed holds the records of the pass without the hook, which times the
    steps the benchmark calls; counted holds those of the hooked pass, which
    gives the counts and the time inside approximate and the witness search
    (both inflated by the hook).
    """
    n = len(ops)
    evals = [(op, r) for op, r in zip(ops, counted) if op.kind == "eval"]
    answered = [(op, r) for op, r in evals if r["answer_den_bits"] is not None]
    verdicts = [r for op, r in zip(ops, counted) if op.kind != "eval"]
    verdict_times = [r for op, r in zip(ops, timed) if op.kind != "eval"]
    fired = [r["fired_stage"] for r in verdicts if r["fired_stage"] is not None]
    stages = sum(r["stages"] for r in verdicts)
    calls = sum(r["approx_calls"] for r in counted)
    hits = sum(r["memo_hits"] for r in counted)
    searches = sum(r["witness_searches"] for r in counted)

    def per_op_ms(records, key):
        return 1000 * sum(r.get(key, 0.0) for r in records) / n

    return {
        # over eval ops whose approximation returned
        "rational.answer_den_bits": _mean(r["answer_den_bits"] for _, r in answered),
        "rational.max_den_bits": max(r["max_den_bits"] for r in counted),
        "rational.den_bits_per_k": _mean(r["answer_den_bits"] / op.prec for op, r in answered),
        "completion.approx_calls": calls / n,
        "completion.memo_hits": hits / n,
        "completion.memo_hit_ratio": hits / calls if calls else 0.0,
        "completion.approx_ms": per_op_ms(counted, "approx_s"),
        # over sign and compare ops
        "partiality.run_ms": 1000 * _mean(r.get("run_s", 0.0) for r in verdict_times),
        "partiality.stages_evaluated": stages / len(verdicts) if verdicts else 0.0,
        "partiality.fired_stage": _mean(fired),
        "partiality.useful_stage_ratio": sum(k + 1 for k in fired) / stages if stages else 0.0,
        "reals.witness_ms": per_op_ms(counted, "witness_s"),
        # over witness searches
        "reals.witness_stages": (sum(r["witness_stages"] for r in counted) / searches
                                 if searches else 0.0),
        "expressions.parse_ms": per_op_ms(timed, "parse_s"),
        "expressions.ast_nodes": sum(r["ast_nodes"] for r in timed) / n,
        "expressions.build_ms": per_op_ms(timed, "build_s"),
        "cli.format_ms": per_op_ms(timed, "format_s"),
        "cli.output_bytes": sum(r["output_bytes"] for r in timed) / n,
    }


def traced_run(api, ops, seconds, tally, info):
    """Per-layer metrics.  Each round runs the ops three times: through the
    CLI, through the pipeline with spans only, and through the pipeline under
    the probe.  Rounds repeat for the given seconds (at least two); every
    pipeline outcome must equal the CLI's and the probe's counts must repeat
    exactly.  Reports the median over rounds."""
    probe = tracing.LayerProbe(api)
    expected = None
    counts = None
    mismatches = []
    rounds = []
    plain_s, traced_s = [], []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_TRACE_ROUNDS or perf_counter() < deadline:
        untraced = [tracing.run_cli(api.main, op.argv) for op in ops]
        plain_s.append(sum(elapsed for _, _, elapsed in untraced))
        if expected is None:
            expected = [(status, stdout) for status, stdout, _ in untraced]
            for i, (status, stdout) in enumerate(expected):
                tally.add(i, status, stdout)
        timed = [tracing.traced_op(api, None, op) for op in ops]
        start = perf_counter()
        counted = [tracing.traced_op(api, probe, op) for op in ops]
        traced_s.append(perf_counter() - start)
        for op, want, *runs in zip(ops, expected, timed, counted):
            for status, stdout, _ in runs:
                if (status, stdout) != want:
                    mismatches.append("%s: untraced %s, traced %s" % (op.label, want[0], status))
        round_counts = [record["counts"] for _, _, record in counted]
        if counts is None:
            counts = round_counts
        elif round_counts != counts:
            mismatches.append("counts differ between traced passes")
        rounds.append(layer_metrics(ops, [r for _, _, r in timed], [r for _, _, r in counted]))
        if mismatches:
            break
    info["trace_rounds"] = len(rounds)
    info["trace_mismatches"] = mismatches[:10]
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    return metrics, not mismatches


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "cpu": _cpu_model(), "nproc": os.cpu_count(),
    }
    try:
        api, ops, setup_s = setup(args.workload, args.seed, info)
    except SetupError as exc:
        print("error=setup message=%s" % exc, file=sys.stderr)
        return 2
    info["ops_per_cycle"] = len(ops)
    tally = Tally(ops)
    if args.trace:
        metrics, consistent = traced_run(api, ops, args.seconds, tally, info)
        units = PER_LAYER
    else:
        kernel_name = workloads.REFERENCE_KERNEL[args.workload]
        info["reference_kernel"] = kernel_name
        metrics = timed_run(api, ops, reference.KERNELS[kernel_name], args.seconds, tally, info)
        metrics["setup_s"] = setup_s
        consistent = True
        units = END_TO_END
    info["failures"] = dict(sorted(tally.failures.items()))
    info["wrong"] = tally.wrong[:10]
    correct = consistent and not tally.wrong
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
