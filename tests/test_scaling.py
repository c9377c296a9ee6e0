"""How the front end's cost grows with the depth of its input, counted on
the machine's own terms: peak bytes traced by tracemalloc, not wall time.

Each shape is read and built at depth d and 2d, past the recursion limit;
doubling the depth may at most about double the peak.
"""

import gc
import sys
import tracemalloc

import pytest

from cauchyreal import build_real, parse

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
