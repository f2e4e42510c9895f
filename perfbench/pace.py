"""The machine's speed, measured alongside the timed work.

On a shared host the CPU runs slower at times, by a third or more, for
spells of a few seconds to minutes; process CPU time follows wall time, so
the time is not lost to other processes but to a slower CPU.  A wall-clock
figure averaged over one run then measures the spell as much as the
program.  So a fixed pure-Python task that never touches the program (a
depth-first search over lists and a dict) is timed between items, and
every timed span of a run is scaled to the speed at which that task takes
REFERENCE_S:

    scaled = wall seconds * REFERENCE_S / (median calibration of the run)

The program never runs while the task does, and the task does not change
when the program does, so a faster program gives smaller scaled times just
as it gives smaller wall times.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REFERENCE_S = 0.004
# The task is timed before an item when its last timing is older than
# EVERY_S, and BURST times after a gap longer than a second, so that a run
# of long items still gets enough timings for a steady median.
EVERY_S = 0.1
BURST = 5
VERTICES = 300


def _task_inputs():
    rng = random.Random(20170120)
    adj = [set() for _ in range(VERTICES)]
    for _ in range(3 * VERTICES):
        a, b = rng.randrange(VERTICES), rng.randrange(VERTICES)
        adj[a].add(b)
        adj[b].add(a)
    weight = {v: rng.randrange(100) for v in range(VERTICES)}
    # seen[v] is the last search that reached v; seen[VERTICES] the last search
    return [tuple(sorted(nbrs)) for nbrs in adj], weight, [0] * (VERTICES + 1)


def _task(adj, weight, seen) -> int:
    """Depth-first searches from every tenth vertex.  Nothing is allocated
    but the search stack, so the time does not hang on the state the
    program left the heap in."""
    total = 0
    for source in range(0, VERTICES, 10):
        stamp = seen[VERTICES] = seen[VERTICES] + 1
        seen[source] = stamp
        stack = [source]
        while stack:
            v = stack.pop()
            total += weight[v]
            for w in adj[v]:
                if seen[w] != stamp:
                    seen[w] = stamp
                    stack.append(w)
    return total


class Pace:
    def __init__(self):
        self.inputs = _task_inputs()
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        """Time the task if its last timing is older than EVERY_S.  Each
        timing follows an untimed run of the task, so that it finds its data
        in the caches whatever ran before it, and the collector is off, so
        that it does not pay for the program's garbage."""
        now = time.perf_counter()
        if now - self.last < EVERY_S:
            return
        gc.disable()
        try:
            for _ in range(BURST if now - self.last > 1.0 else 1):
                _task(*self.inputs)
                start = time.perf_counter()
                _task(*self.inputs)
                self.last = time.perf_counter()
                self.samples.append(self.last - start)
        finally:
            gc.enable()

    def factor(self) -> float:
        """Scaled seconds per wall second: REFERENCE_S over the median timing."""
        return REFERENCE_S / statistics.median(self.samples)
