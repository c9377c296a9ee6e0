"""Traced pipeline: the CLI's steps called one by one, with per-layer counters.

Spans around parse, build_real, approximate / Partial.run and the cli
formatters are taken here, around the calls into each layer.  Counts inside
the kernel come from a sys.settrace hook filtered on three code objects:
CompletionPoint.approximate, the stage function of lt_rat_semidecide and
find_apart_witness.  The hook sees every Python call but follows only those
three to their return, with line events off.  It adds no frame per recursion
level, so a deep expression fails (or not) exactly as it does untraced; a
per-call Python wrapper would not.
"""

import io
import sys

from dataclasses import fields, is_dataclass
from time import perf_counter


def failure_key(exc):
    """How a failed op is reported: the exception type, with the int-to-str
    limit of large outputs told apart from other ValueErrors."""
    name = type(exc).__name__
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        return name + ".int_to_str"
    return name


def run_cli(main, argv):
    """One untraced op: (status, stdout, seconds), status exit<N> or a failure key."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        status = "exit%d" % main(list(argv), out, err)
    except Exception as exc:  # every crash is a measured failure, never fatal
        status = failure_key(exc)
    return status, out.getvalue(), perf_counter() - start


def ast_nodes(node):
    count = 0
    stack = [node]
    while stack:
        item = stack.pop()
        if is_dataclass(item):
            count += 1
            stack.extend(getattr(item, f.name) for f in fields(item))
    return count


class LayerProbe:
    """Trace hook counting kernel work for one op at a time."""

    def __init__(self, api):
        self.approx_code = api.CompletionPoint.approximate.__code__
        self.witness_code = api.find_apart_witness.__code__
        self.stage_code = next(c for c in api.lt_rat_semidecide.__code__.co_consts
                               if getattr(c, "co_name", None) == "stage")
        self.top = api.TOP
        self.reset()

    def reset(self):
        self.approx_calls = 0
        self.memo_hits = 0
        self.approx_s = 0.0
        self.max_den_bits = 0
        self.stages = 0
        self.fired_stage = None
        self.witness_searches = 0
        self.witness_stages = 0
        self.witness_s = 0.0
        self._depth = 0
        self._approx_start = 0.0
        self._witness_start = 0.0

    def __call__(self, frame, event, arg):
        # The global trace function: event is always "call".
        code = frame.f_code
        if code is self.approx_code:
            self._approx_call(frame.f_locals)
            frame.f_trace_lines = False
            return self._approx_return
        if code is self.stage_code:
            self.stages += 1
            frame.f_trace_lines = False
            return self._stage_return
        if code is self.witness_code:
            self._witness_start = perf_counter()
            frame.f_trace_lines = False
            return self._witness_return
        return None

    def _approx_call(self, local):
        if self._depth == 0:
            self._approx_start = perf_counter()
        self._depth += 1
        self.approx_calls += 1
        point, eps = local["self"], local["eps"]
        # the memo serves a request no finer than the best one computed
        best = point._best_eps
        if point.exact is None and best is not None and best <= eps:
            self.memo_hits += 1

    # Local trace functions see "exception" as well as "return" events, and
    # must return themselves to keep following the frame.

    def _approx_return(self, frame, event, arg):
        if event == "return":
            self._depth -= 1
            if self._depth == 0:
                self.approx_s += perf_counter() - self._approx_start
            if arg is not None:
                self.max_den_bits = max(self.max_den_bits, arg.denominator.bit_length())
        return self._approx_return

    def _stage_return(self, frame, event, arg):
        if event == "return" and arg is self.top:
            k = frame.f_locals["k"]
            if self.fired_stage is None or k < self.fired_stage:
                self.fired_stage = k
        return self._stage_return

    def _witness_return(self, frame, event, arg):
        if event == "return":
            self.witness_s += perf_counter() - self._witness_start
            self.witness_searches += 1
            if arg is None:
                self.witness_stages += frame.f_locals["fuel"] + 1
            else:
                # gap is 2**-k at the stage k that fired
                self.witness_stages += arg.gap.denominator.bit_length()
        return self._witness_return

    def counts(self):
        """The op's exact counts, which must repeat on every traced run."""
        return (self.approx_calls, self.memo_hits, self.max_den_bits, self.stages,
                self.fired_stage, self.witness_searches, self.witness_stages)


class _Spans:
    def __init__(self):
        self.seconds = {}

    def timed(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + perf_counter() - start


def traced_op(api, probe, op):
    """Run op through the pipeline's public functions, timing each step.

    With a probe, the steps run under it as a trace hook and the record
    also holds its counts; with None, only the spans are taken.  Returns
    (status, stdout, record); status and stdout match what the CLI gives for
    the same op, so the runs can be compared op for op.
    """
    spans = _Spans()
    out = io.StringIO()
    record = {"answer_den_bits": None, "ast_nodes": 0}
    if probe is not None:
        probe.reset()
        sys.settrace(probe)
    try:
        status = _pipeline(api, op, spans, out, record)
    except api.ParseError:
        status = "exit1"
    except api.WitnessSearchError:
        status = "exit2"
    except Exception as exc:
        status = failure_key(exc)
    finally:
        hook = sys.gettrace()
        sys.settrace(None)
    record.update(spans.seconds)
    record["output_bytes"] = len(out.getvalue().encode())
    if probe is not None:
        # At the recursion limit the hook itself can overflow, and the
        # interpreter then removes it; the op's counts stop there.  Any other
        # op must keep the hook to the end, or its outcome reads as changed.
        if hook is not probe and status != "RecursionError":
            status = "trace_hook_dropped"
        record["counts"] = probe.counts() + (record["answer_den_bits"], record["ast_nodes"])
        for name in ("approx_calls", "memo_hits", "approx_s", "max_den_bits", "stages",
                     "fired_stage", "witness_searches", "witness_stages", "witness_s"):
            record[name] = getattr(probe, name)
    return status, out.getvalue(), record


def _pipeline(api, op, spans, out, record):
    # the CLI's default witness budgets
    witness_fuel = max(64, (op.prec if op.kind == "eval" else op.fuel) + 8)
    points = []
    for text in op.texts:
        node = spans.timed("parse_s", api.parse, text)
        record["ast_nodes"] += ast_nodes(node)
        points.append(spans.timed("build_s", api.build_real, node, witness_fuel))
    if op.kind == "eval":
        eps = api.dyadic(op.prec)
        mid = points[0].approximate(eps)
        record["answer_den_bits"] = mid.denominator.bit_length()
        spans.timed("format_s", _format_enclosure, api, out, op.prec, mid - eps, mid + eps)
        return "exit0"
    if op.kind == "sign":
        verdict = spans.timed("run_s", api.is_positive(points[0]).run, op.fuel)
        words = ("positive", "negative")
    else:
        verdict = spans.timed("run_s", api.compare_partial(*points).run, op.fuel)
        words = ("lt", "gt")
    spans.timed("format_s", _format_verdict, api, out, verdict, words, op.fuel)
    return "exit0"


def _format_enclosure(api, out, prec, lo, hi):
    out.write("eps=%s\n" % api.format_rat(api.dyadic(prec)))
    out.write("lo=%s\n" % api.format_rat(lo))
    out.write("hi=%s\n" % api.format_rat(hi))
    digits = api.decimal_digits(prec)
    out.write("lo.decimal=%s\n" % api.format_decimal(lo, digits, False))
    out.write("hi.decimal=%s\n" % api.format_decimal(hi, digits, True))


def _format_verdict(api, out, outcome, words, fuel):
    if outcome is api.PENDING:
        verdict = "unknown"
    else:
        verdict = words[0] if outcome.value else words[1]
    out.write("verdict=%s\n" % verdict)
    out.write("fuel=%d\n" % fuel)
