"""Host speed, read from a fixed reference computation timed between calls.

On a shared VM the same code runs up to 1.5x slower in some spells than
in others.  A spell lasts from under a second to minutes, so it can cover
one call, one pass or a whole run.  CPU time moves with wall time
through it, so no clock of the process can tell a slow spell from slow
code.  The benchmark therefore times a fixed
reference computation, which never touches gwolab, right before and
right after every timed call, and scales the call's wall time by
REFERENCE_S over the mean of those two reference times.  The result is
in seconds at a fixed host speed.  A change to gwolab moves the call and
not the reference, so it shows in full; a slow spell moves both and
cancels.  The run pins itself and its child processes to one CPU, so
that the reference and the calls run on the same one.

The reference mixes what gwolab's calls spend their time on: Python
bytecode (the simulator's loop over individuals, the DP's segment walk),
many small numpy calls, and a few array passes over a few hundred KiB.
"""

from __future__ import annotations

import time

import numpy as np

# A typical time of one reference_work() on the baseline host (Intel Xeon,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6), so that scaled times read close to
# wall times there.  It is only a scale: any fixed value gives the same
# ratios between runs and between commits.
REFERENCE_S = 0.0104
SAMPLES_PER_MARK = 2

_ARRAY = np.random.default_rng(12345).random(40_000)
_SMALL = _ARRAY[:64].copy()


def reference_work() -> float:
    acc = 0.0
    table: dict = {}
    items: list = []
    for i in range(12_000):
        acc += (i % 7) * 0.5 - (i & 3)
        table[i & 255] = acc
        items.append(acc)
    items.sort()
    for _ in range(600):
        acc += float(np.dot(_SMALL, _SMALL)) + float(_SMALL.sum())
    for _ in range(8):
        acc += float(np.sort(_ARRAY)[-1]) + float(np.cumsum(_ARRAY)[-1])
    return acc + len(table)


class HostSpeed:
    """Reference timings of one run, taken right before and after each
    timed call or command."""

    def __init__(self):
        self.samples: list[float] = []
        self._last: float | None = None

    def mark(self) -> float:
        """Time the reference now; returns the scale for the wall time
        since the previous mark, REFERENCE_S over the mean reference time
        of the two marks (1.0 at the first mark).  Call it between timed
        calls, never inside one."""
        times = []
        for _ in range(SAMPLES_PER_MARK):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        self.samples += times
        now = min(times)  # the first sample also pays for the caches the call left cold
        scale = 1.0 if self._last is None else 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return scale
