"""Machine-speed calibration: a fixed pure-Python kernel timed between jobs.

The machines this benchmark runs on are shared, and their speed drifts by
up to 2x over seconds to minutes: a fixed job's wall time and CPU time
move together, so the drift is in how fast the CPU runs, not in waiting.
Raw job times from runs minutes apart then differ by more than a program
change would.  The worker therefore times this kernel, which does not
touch ``dlscape``, between jobs (``Calibrator``); a job's wall time
divided by the kernel time measured around it is the job's time in
calibration units (unit ``cal``), from which the drift the two share
cancels.  The kernel mixes the kinds of interpreter work the program
does: a list-indexed BFS over adjacency lists, a BFS over tuple vertices
in a dict, and exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from time import perf_counter

LIST_SIDE = 80             # grid of the list-indexed BFS
DICT_SIDE = 40             # grid of the tuple-vertex BFS
INTERVAL_S = 0.1           # the longest gap between two calibrations
SPAN_S = 2.0               # calibrations this near a job scale it


def _grid_adjacency(side):
    adj = []
    for i in range(side * side):
        x, y = divmod(i, side)
        adj.append([j for j, ok in ((i - side, x > 0),
                                    (i + side, x < side - 1),
                                    (i - 1, y > 0),
                                    (i + 1, y < side - 1)) if ok])
    return adj


_ADJ = _grid_adjacency(LIST_SIDE)
_FRACS = [Fraction(i % 9 + 1, i % 7 + 1) for i in range(40)]


def _list_bfs():
    dist = [-1] * len(_ADJ)
    dist[0] = 0
    queue = deque([0])
    pop, push = queue.popleft, queue.append
    while queue:
        v = pop()
        dv = dist[v] + 1
        for w in _ADJ[v]:
            if dist[w] < 0:
                dist[w] = dv
                push(w)
    return dist[-1]


def _dict_bfs():
    side = DICT_SIDE
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        x, y = v
        for w in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= w[0] < side and 0 <= w[1] < side and w not in dist:
                dist[w] = d
                queue.append(w)
    return len(dist)


def _fractions():
    best = Fraction(0)
    for a in _FRACS:
        for b in _FRACS[:8]:
            gap = abs(a - b)
            if gap > best:
                best = gap
    return best


def kernel():
    """Run the kernel once; its result is fixed."""
    return _list_bfs(), _dict_bfs(), _fractions()


def measure():
    """Wall time of one run of the kernel."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Calibrator:
    """Kernel times taken between jobs, at most ``INTERVAL_S`` apart.

    ``before_job`` calibrates when the last calibration is older than the
    interval and returns the job's start time; ``close`` takes a final
    calibration.  A job is scaled by the median of the kernel times taken
    from ``SPAN_S`` before it starts to ``SPAN_S`` after it ends: one run
    of the kernel is too short to time steadily, while the machine's speed
    changes over seconds.  The span always holds the calibration taken
    just before the job.
    """

    def __init__(self):
        self.times = []
        self.at = []               # perf_counter() after each calibration

    def _take(self):
        self.times.append(measure())
        self.at.append(perf_counter())

    def before_job(self):
        if not self.at or perf_counter() - self.at[-1] >= INTERVAL_S:
            self._take()
        return perf_counter()

    def close(self):
        self._take()

    def scale(self, starts, job_s):
        """Each job's time in calibration units."""
        out = []
        for t0, t in zip(starts, job_s):
            lo = bisect_left(self.at, t0 - SPAN_S)
            hi = bisect_right(self.at, t0 + t + SPAN_S)
            out.append(t / statistics.median(self.times[lo:hi]))
        return out
