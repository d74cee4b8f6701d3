"""Host-speed meter: what makes the reported times repeat on a noisy host.

The host's speed drifts by tens of percent in phases that last minutes and
jitters within a cycle (ten runs of now_recover: raw wall p50 spread 13-27 %
of the median; under a heavy neighbour a served cycle took 2-3x as long),
far more than any bound in BENCHMARK.json, and no number of samples inside
one run averages a whole-run drift away. So a small fixed kernel with the
cycle's own instruction mix (dict and tuple churn, keyed sorts, numpy
min-plus) is timed *while* every sample runs, in the process doing the
work, and every reported time is the wall time divided by how slow the
kernel ran relative to REFERENCE_SLICE_S: wall time at reference speed.
The kernel shares no code with the repo, so it cannot hide a change in the
program; the raw wall time stays in the ledger as
``ledger.cycle_wall_p50_ms``.
"""

from __future__ import annotations

import signal
import statistics
import time
from operator import itemgetter

import numpy as np

#: A slice's time inside a cycle on the quietest phase seen while this
#: benchmark was written, so that reported ~ wall on a quiet host.
REFERENCE_SLICE_S = 0.0032
#: CPU time of the metered process between two slices.
INTERVAL_S = 0.1

_MATRIX = (np.arange(200 * 200, dtype=np.int32).reshape(200, 200) * 7919) % 97
_ROWS = [(i * 7919 % 3001, str(i)) for i in range(2500)]


def kernel_slice() -> float:
    """One ~3 ms slice. It keeps no new container alive, so it never
    brings a garbage collection forward inside the block it interrupts."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        key = (i % 211, i % 17)
        counts[key] = counts.get(key, 0) + 1
    _ROWS.sort(key=itemgetter(1))
    _ROWS.sort(key=itemgetter(0))
    dist = _MATRIX.copy()
    for k in range(12):
        via = dist[:, k, None] + dist[None, k, :]
        better = via < dist
        dist[better] = via[better]
    return time.perf_counter() - start


class SpeedMeter:
    """How slow the host ran, relative to the reference, while a block ran.

    A profiling timer runs one kernel slice per ``INTERVAL_S`` of CPU time
    this process spends *inside* the block (Python runs signal handlers
    between bytecodes), so host speed is sampled where and when the work
    happens rather than before and after it, and not at all while the
    process only waits. ``busy_s`` is the time the slices themselves took,
    to be taken off the block's wall time. A slice holds the served
    workload's loop for ~3 ms, well inside its reader's 10 ms limit.
    Slices from a worker process (see :func:`arm_worker`) are added with
    :meth:`add`.
    """

    def __enter__(self) -> "SpeedMeter":
        self.slices: list[float] = []
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum: int, frame: object) -> None:
        self.add([kernel_slice()])

    def add(self, slices: list[float]) -> None:
        self.slices += slices
        self.busy_s += sum(slices)

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        while len(self.slices) < 5:  # a block shorter than a few intervals
            self.slices.append(kernel_slice())

    @property
    def slowness(self) -> float:
        return statistics.median(self.slices) / REFERENCE_SLICE_S


# -- inside a pool worker ------------------------------------------------
# Submitted to the pool by reference, so the state they share has to be
# the worker process's module state.
_worker_slices: list[float] = []


def arm_worker() -> None:
    """Meter this (worker) process for the rest of its life."""
    signal.signal(signal.SIGPROF, lambda *_: _worker_slices.append(kernel_slice()))
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def drain_worker() -> list[float]:
    """The slices timed since the last drain."""
    taken = _worker_slices[:]
    _worker_slices.clear()
    return taken
