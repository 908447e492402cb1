"""A fixed reference work that gauges how fast the host runs right now.

The host this benchmark was built on has slow phases, from seconds to
minutes long, that slow the same code by 30 % up to 2x (README.md, "Noise
on this machine").  During a pass, ``Sampler`` times the reference work
from a SIGALRM handler every PERIOD_S seconds, in the same process, so the
samples are spread over the whole pass; the pass's times leave the
sampler's own time out.  run.py scales them by ``REFERENCE_S / median
sample``: a pass run in a slow phase is reported at the speed the host has
in a quiet phase.

The reference is independent of mudeform, so a change to the program
moves the pass's time but not the samples.  It mixes what the program
spends its time on: Python big-integer arithmetic (sympy rationals and
mpmath's Python backend), dict churn (sympy), and a numpy complex
exponential on an array (the kernel).  A signal handler runs between
bytecodes, never inside a C call, so it cannot interrupt numpy or
mpmath half-way.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median reference sample inside a pass on the 2-core x86-64 VM the
# benchmark was built on; only ratios to it matter
REFERENCE_S = 3.0e-3
PERIOD_S = 0.1

_MODULUS = (1 << 521) - 1
_GRID = np.linspace(0.0, 50.0, 4096)


def _work():
    x = 3
    for _ in range(1500):
        x = (x * x + 7) % _MODULUS
    counts: dict[int, int] = {}
    for i in range(1500):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
    s = 0j
    for j in range(4):
        s += np.exp(1j * _GRID * (1.0 + j)).sum()
    return x, counts, s


class Sampler:
    """Times the reference work every PERIOD_S seconds while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen_s = 0.0  # total time spent in the handler's work

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen_s += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        """How many times slower than REFERENCE_S the host ran the pass;
        1.0 if the pass was too short for a sample."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / REFERENCE_S
