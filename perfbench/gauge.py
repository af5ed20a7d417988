"""Machine-speed gauge: scales measured times to a nominal machine speed.

On a shared virtual machine the speed of one core drifts by a factor of
two or more over tens of seconds, which swamps the differences between
two commits.  The gauge times a fixed pure-Python kernel (exact
fractions, tuples, dicts and a sort, like graphvm's own inner loops)
between ops, and each measured time is multiplied by
``(NOMINAL_KERNEL_NS / kernel time nearby) ** ELASTICITY``: the time
the op would have taken while the kernel ran at its nominal speed.  The
kernel does not touch graphvm, so no change to the program can move it.
Raw times are kept alongside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter_ns

# Typical kernel time on a shared 2-vCPU x86-64 VM with CPython 3.11
# (medians per run there ranged from 0.65 to 1.15 ms); scaled times are
# what the ops take when the kernel takes this long.
NOMINAL_KERNEL_NS = 1_000_000
PERIOD_NS = 50_000_000      # sample at most this often between ops
WINDOW_NS = 150_000_000     # samples this close to an op set its scale
# graphvm's op times change by less than the kernel's when the machine
# speeds up or slows down: in six paired runs of the kernel against
# language() calls and single runs, log(op time) against log(kernel
# time) had slopes of 0.63 to 0.86.  Recomputing a set of ten-seed runs
# with this power instead of the plain ratio roughly halved the quartile
# spread of their throughput.
ELASTICITY = 0.75


def scale_for(kernel_ns: float) -> float:
    return (NOMINAL_KERNEL_NS / kernel_ns) ** ELASTICITY


def kernel() -> int:
    acc = Fraction(0)
    table = {}
    for k in range(1, 120):
        f = Fraction(k, k + 7)
        acc += f * f
        table[(k % 17, f.numerator)] = (f, acc < 1)
    return len(sorted(table.items()))


class SpeedGauge:
    def __init__(self):
        self.times: list[int] = []      # sample midpoints
        self.kernel_ns: list[int] = []
        self._last = 0

    def sample(self) -> None:
        """Time the kernel twice and keep the faster run."""
        best = None
        for _ in range(2):
            started = perf_counter_ns()
            kernel()
            elapsed = perf_counter_ns() - started
            best = elapsed if best is None else min(best, elapsed)
        self.times.append(perf_counter_ns() - best // 2)
        self.kernel_ns.append(best)
        self._last = perf_counter_ns()

    def maybe_sample(self) -> None:
        if perf_counter_ns() - self._last >= PERIOD_NS:
            self.sample()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that brings a time measured over an interval to the
        nominal speed."""
        return scale_for(self.kernel_near(start_ns, end_ns))

    def kernel_near(self, start_ns: int, end_ns: int) -> float:
        """Median kernel time of the samples within WINDOW_NS of an
        interval, or of the nearest sample when none is that close."""
        lo = bisect.bisect_left(self.times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end_ns + WINDOW_NS)
        near = self.kernel_ns[lo:hi]
        if not near:
            mid = (start_ns + end_ns) // 2
            i = bisect.bisect_left(self.times, mid)
            candidates = [j for j in (i - 1, i) if 0 <= j < len(self.times)]
            j = min(candidates, key=lambda j: abs(self.times[j] - mid))
            near = [self.kernel_ns[j]]
        return statistics.median(near)
