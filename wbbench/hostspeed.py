"""Host-speed correction: time every call in reference-host units.

On a shared host the same pure-Python work can take 1.7 times longer in
one minute than in the next, and process CPU time grows with wall time,
so the slowdown is the CPU's, not the scheduler's.  Averaging inside a
run cannot remove drift that lasts longer than the run.

:class:`HostSpeed` therefore runs a fixed pure-Python probe (tuple
indexing, function calls, hashing, set and dict lookups: the interpreter
work the workbench does) at most every ``EVERY_S`` seconds, always
between timed calls and never inside one.  A call that took ``d``
seconds counts as ``d * REF_S / p``.  Here ``p`` is the mean duration of
the ``NEAR`` probes just before the call and the ``NEAR`` probes just
after it, and ``REF_S`` is a fixed reference duration for the probe,
close to its mean on a 2-vCPU x86-64 sandbox under Python 3.11 (0.25 ms
in its fast phases, 0.45 ms in its slow ones).  A change to the program
moves the scaled time exactly as it moves the raw time; a change in the
host's speed moves both the call and the probes, and cancels.  Raw
timings are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

#: Reference probe duration (seconds): scaled times are the raw times
#: of a host on which the probe takes this long.
REF_S = 0.5e-3
#: Least time between two probes (seconds).
EVERY_S = 0.02
#: A call's scale comes from this many probes on each side of it.
NEAR = 2

_ROWS = [(i, i * 7 % 1000, str(i)) for i in range(1500)]
_BY_NAME = {row[2]: row for row in _ROWS}
_EVEN = frozenset(row for row in _ROWS if row[0] % 2 == 0)


def _matches(row, value):
    return row[1] == value


def _probe():
    """Interpreter work that allocates no container, so the collector
    never runs inside a probe and the program's heap size cannot change
    its duration."""
    total = 0
    for row in _ROWS:
        if _matches(row, 3) or row in _EVEN:
            total += row[0]
        total += _BY_NAME[row[2]][1]
    return total


class HostSpeed:
    """A time series of probe durations and the scale it implies."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._last = float("-inf")

    def probe(self, count=1):
        for _ in range(count):
            start = perf_counter()
            _probe()
            end = perf_counter()
            self.times.append(start)
            self.durations.append(end - start)
            self._last = end

    def maybe_probe(self):
        """Probe if ``EVERY_S`` has passed since the last probe."""
        if perf_counter() - self._last >= EVERY_S:
            self.probe()

    def scale(self, start, end):
        """``REF_S`` over the mean of the ``NEAR`` probes just before
        ``start`` and the ``NEAR`` probes just after ``end``."""
        before = bisect.bisect_left(self.times, start)
        after = bisect.bisect_left(self.times, end)
        near = (self.durations[max(0, before - NEAR):before]
                + self.durations[after:after + NEAR])
        return REF_S / statistics.fmean(near)
