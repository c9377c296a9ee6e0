"""Reference kernels: fixed pieces of stdlib Python that the benchmark runs
between ops to read the machine's current speed.

On a shared machine the speed of the interpreter changes by up to a factor
of two over seconds to minutes, and it slows plain CPU time as much as wall
time.  Each op's wall time is therefore divided by the time of a kernel
measured right before and right after it, which cancels most of the change.
Interpreted code and big-integer arithmetic do not change speed together, so
there are two kernels, and a workload uses the one that does its kind of
work.  The kernels import nothing of the package, so no change to the
package changes their work.

Timings so normalised are given in reference time: one run of a kernel takes
REFERENCE_SECONDS of it, whatever the machine.  Each kernel is sized to take
about that long in wall time on the machine the benchmark was tuned on.
"""

from fractions import Fraction
from time import perf_counter

REFERENCE_SECONDS = 0.001


def _fraction_sum(n):
    if n == 0:
        return Fraction(0)
    return Fraction(n % 7, 1 + n % 5) + _fraction_sum(n - 1)


def fraction_kernel():
    """Deep Python recursion, Fraction arithmetic and small-object
    allocation: what a low-precision evaluation or a stage scan does."""
    _fraction_sum(300)


_BIG = 3 ** 9000


def bigint_kernel():
    """Products, quotients and decimal strings of integers of some ten
    thousand bits: what a high-precision evaluation does."""
    for _ in range(3):
        y = _BIG * (_BIG + 1) // 7
        str(y >> 20000)


KERNELS = {"fraction": fraction_kernel, "bigint": bigint_kernel}


def seconds(kernel):
    """Wall seconds of one run of kernel."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def normalise(elapsed, before, after):
    """elapsed wall seconds in reference seconds, given the kernel's wall
    seconds measured just before and just after."""
    return elapsed / ((before + after) / 2) * REFERENCE_SECONDS
