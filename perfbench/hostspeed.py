"""The host's speed, sampled while the benchmark runs.

The host this benchmark was written on changes speed all the time: it
runs the same work up to twice as slowly from one half second to the
next, and whole minutes run slower than others (README.md, "Noise").
A Sampler measures that speed inside the timed work itself: every
INTERVAL_S seconds a timer interrupts the program and runs one reference
unit, a fixed arithmetic loop that uses nothing of wmsnsim, so no change
to the program can move it. The units see the same host, in the same
proportions, as the program between them.

`clock` is the benchmark's clock. It stops while a unit runs, so the
program's timings leave the units out. Without a running Sampler it is
time.perf_counter.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left

INTERVAL_S = 0.02
UNIT_N = 10_000  # loop steps per unit, about a millisecond

_perf = time.perf_counter
# Seconds spent in units so far. Process-wide, as the one SIGALRM timer
# a process has is, so that `clock` needs no Sampler passed to it.
_stopped = 0.0


def clock() -> float:
    """time.perf_counter less the time spent in reference units."""
    stopped = _stopped
    return _perf() - stopped


def unit() -> float:
    """Seconds for one reference unit."""
    t0 = _perf()
    acc = 0
    for i in range(UNIT_N):
        acc = (acc + i * i) % 1_000_003
    return _perf() - t0


class Sampler:
    """Runs a reference unit every INTERVAL_S seconds while in a `with`
    block, from a SIGALRM timer, so only in the main thread."""

    def __init__(self):
        self.units: list[float] = []
        self.stamps: list[float] = []  # the clock when each unit ran
        self._previous = None

    def _tick(self, signum, frame) -> None:
        global _stopped
        t0 = _perf()
        self.stamps.append(clock())
        self.units.append(unit())
        _stopped += _perf() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def units_within(self, spans) -> list[float]:
        """The units that interrupted any of the (start, end) clock
        spans."""
        out = []
        for start, end in spans:
            out += self.units[bisect_left(self.stamps, start):bisect_left(self.stamps, end)]
        return out
