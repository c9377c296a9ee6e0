"""How the cost of the front end and of evaluation grows with the depth of
the input, counted on the machine's own terms: peak bytes traced by
tracemalloc and calls of scaled, not wall time.

Each shape is read and built at depth d and 2d, past the recursion limit;
doubling the depth may at most about double the peak.  Each evaluated
shape is built and then evaluated at depth d and 2d, at depths that still
evaluate at the default recursion limit, and doubling the depth may at most
about double the calls of scaled, counted by a profile hook that adds no
frame per call.
"""

import gc
import sys
import tracemalloc

import pytest

from cauchyreal import CompletionPoint, build_real, dyadic, parse
from cauchyreal.completion import _Operation
from cauchyreal.reals import _Below

DEPTH = 2500

SHAPES = {
    "negations": lambda d: "-" * d + "below(1)",
    "max": lambda d: "max(" * d + "below(1)" + ", below(2))" * d,
    "right_nested_sum": lambda d: "below(1) + (" * d + "below(1)" + ")" * d,
}


def _peak(function, argument):
    """The peak bytes traced while function(argument) runs, its result
    included.  A full collection first empties the interpreter's free lists,
    so that every object made is a traced allocation, not a reused one."""
    gc.collect()
    tracemalloc.start()
    try:
        result = function(argument)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", SHAPES)
def test_parse_and_build_memory_grows_linearly_with_depth(shape):
    assert sys.getrecursionlimit() < DEPTH
    peaks = {}
    for depth in (DEPTH, 2 * DEPTH):
        text = SHAPES[shape](depth)
        parse_peak, order = _peak(parse, text)
        build_peak, _ = _peak(build_real, order)
        peaks[depth] = parse_peak, build_peak
    for step, (small, large) in zip(("parse", "build_real"), zip(*peaks.values())):
        assert large <= 2.2 * small, (step, small, large)


def _horner(d):
    """A degree-d Horner chain (p * below(5/7) +- c) at its shared leaf."""
    p = "2"
    for i in range(d):
        p = "(%s * below(5/7) %s %d)" % (p, "+-"[i % 2], i % 7 + 1)
    return p


def _mixed_sum(d):
    """A left-deep chain of d terms, below() leaves and literals, joined by
    + and -."""
    terms = ["below(%d/7)" % (i % 11 - 5) if i % 2 else "%d/3" % (i % 5) for i in range(d)]
    return terms[0] + "".join(" %s %s" % ("+-"[i % 3 == 2], t) for i, t in enumerate(terms[1:]))


def _scaled_calls(text):
    """The calls of scaled made by building text's real and evaluating it at
    2**-64, across CompletionPoint.scaled and the two overrides, and the
    finest k asked of a below() leaf.  A profile hook counts them: it runs
    beside each call, not as a frame under it, so the depth that evaluates
    is unchanged."""
    codes = CompletionPoint.scaled.__code__, _Operation.scaled.__code__
    leaf = _Below.scaled.__code__
    calls, finest = 0, -1

    def hook(frame, event, arg):
        nonlocal calls, finest
        if event == "call":
            code = frame.f_code
            if code is leaf:
                calls += 1
                finest = max(finest, frame.f_locals["k"])
            elif code in codes:
                calls += 1

    sys.setprofile(hook)
    try:
        build_real(text).approximate(dyadic(64))
    finally:
        sys.setprofile(None)
    return calls, finest


_EVALUATED = {
    "horner": (_horner, 150),
    "mixed_sum": (_mixed_sum, 2000),
    "right_nested_divisions": pytest.param(
        lambda d: "1/(" * d + "below(2)" + ")" * d, 100,
        marks=pytest.mark.xfail(strict=True, reason=(
            "building scans each denominator for its witness, about 4.5*d**2 "
            "calls of scaled, until a denominator's enclosure certifies it "
            "(ROADMAP item 5)"))),
}


@pytest.mark.parametrize("shape, depth", _EVALUATED.values(), ids=list(_EVALUATED))
def test_scaled_calls_grow_linearly_with_depth(shape, depth):
    small, _ = _scaled_calls(shape(depth))
    large, _ = _scaled_calls(shape(2 * depth))
    assert large <= 2.2 * small, (small, large)


def test_a_horner_level_costs_at_most_five_bits():
    # each level reads p * x at k + 2 and p at 3 bits finer still, so the
    # shared leaf's finest k grows by 5 a level
    d = 150
    _, small = _scaled_calls(_horner(d))
    _, large = _scaled_calls(_horner(2 * d))
    assert large - small <= 5 * d, (small, large)
