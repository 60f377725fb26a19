"""Machine-speed calibration.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over stretches of seconds to minutes: while the benchmark
was written, the same pass over the same inputs took anywhere from 2.8 s
to 3.7 s within one minute.  Every timing is therefore taken next to a
speed sample: a fixed pure-Python kernel, with the same kind of work as
the library (small tuples, dict lookups, short loops), is timed about
every ``EVERY_NS`` of wall time, and each timing is scaled by
``REF_NS`` over the median kernel time of the ``NEAREST`` samples around
it.  The reported times are those of a machine on which the kernel takes
exactly ``REF_NS``; the raw times are printed beside them.  Measured on
the large round trips, the scaled pass time varied by 1.8% (coefficient
of variation over 12 passes) where the raw pass time varied by 8.5%.

The kernel calls nothing in the library, so a change to the library
cannot move it.
"""

from bisect import bisect_left
from statistics import median
from time import perf_counter_ns

REF_NS = 1_000_000
EVERY_NS = 50_000_000
NEAREST = 9


def kernel():
    table = {}
    part = (3, 2, 2, 1)
    for i in range(700):
        part = tuple(x + (i & 1) for x in part)
        table[(i % 40, i % 37)] = part
        table.get((i % 41, i % 39), ())
    return len(table)


class Speed:
    """Speed samples of one run, and the scale they give at a time."""

    def __init__(self):
        self.samples = []        # (start ns, kernel ns)
        self._due = 0
        self._times = None

    def sample(self, force=False):
        """Time the kernel if a sample is due (or ``force``)."""
        start = perf_counter_ns()
        if force or start >= self._due:
            kernel()
            end = perf_counter_ns()
            self.samples.append((start, end - start))
            self._due = end + EVERY_NS
            self._times = None

    def scale(self, t_ns):
        """REF_NS over the median kernel time of the samples nearest t."""
        if self._times is None:
            self._times = [t for t, _ in self.samples]
        i = bisect_left(self._times, t_ns)
        lo = max(0, min(i - NEAREST // 2, len(self.samples) - NEAREST))
        return REF_NS / median(ns for _, ns in self.samples[lo:lo + NEAREST])
