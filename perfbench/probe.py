"""Machine-speed probe.

On a shared host, other tenants' load can make the same code run up to
half again as slow, switching within a fraction of a second and shifting
its mix over tens of seconds, separately on each core.
That drift is larger than the changes the benchmark has to resolve, and a
run cannot average it away. So while an untraced run measures, a timer
signal interrupts it every INTERVAL_S seconds and times a fixed kernel on
the same thread. The run's timings are then scaled to the speed at which
the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean probe time of the run

One factor per run removes the drift between runs without adding the
probe's own sample-to-sample noise to each latency.

Probe time is taken out of every measured interval (clock() does not
advance while a probe runs). The kernel mixes the three kinds of work
jsalearn does: a 100x784 by 784x200 matmul, elementwise exp over 100x784,
and a scalar Python loop drawing uniforms as the Metropolis test does. It is
the benchmark's own code, so no change to jsalearn can move it. Raw
wall-clock figures are kept next to the scaled ones in every result record.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Median probe time on the machine the first baseline was taken on (see
# RATIONALE.md), so reported timings are in seconds at that speed.
REFERENCE_S = 0.0050
INTERVAL_S = 0.2

_rng = np.random.default_rng(20052001)
_A = _rng.random((100, 784))
_W = _rng.random((784, 200))


def _kernel():
    for _ in range(3):
        (_A @ _W).sum()
        np.exp(-_A).sum()
    r = np.random.default_rng(1)
    hits = 0
    for _ in range(3000):
        if math.log(r.random()) < -0.5:
            hits += 1
    return hits


class SpeedTrace:
    """Periodic probe of the current thread's speed. Use as a context
    manager around the measured passes; when not active, clock() is the
    wall clock and factor() is 1."""

    def __init__(self):
        self.probes: list[float] = []
        self.spent = 0.0
        self.active = False
        self._previous = None

    def clock(self) -> float:
        """Wall clock minus the time probes took."""
        return time.perf_counter() - self.spent

    def _probe(self, signum, frame):
        t = time.perf_counter()
        _kernel()
        d = time.perf_counter() - t
        self.probes.append(d)
        self.spent += d

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.active = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """REFERENCE_S over the mean probe time of the run: multiplying a
        measured time by it gives the time at the reference speed."""
        if not self.active or not self.probes:
            return 1.0
        return REFERENCE_S / float(np.mean(self.probes))
