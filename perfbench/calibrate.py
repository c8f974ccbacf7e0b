"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed changes as
other tenants load it: by a third or more over minutes, and between two
speeds about 1.7 times apart within a second.  A process's CPU time changes
with it, so neither wall nor CPU time of the program alone is steady across
runs.  The benchmark therefore times a fixed pure-Python kernel before the
timed region of the program, after it, and every ``INTERVAL_S`` inside it
(from a SIGALRM handler, so no thread competes with the program), and
scales each piece of wall time between two kernel timings to a nominal host
speed:

    scaled = wall * NOMINAL_S / (mean kernel time at the piece's two ends)

The kernel is independent of qcomb, so a change to the program moves the
scaled time as it moves the wall time; only the host's speed is divided out.
The kernel does what qcomb's hot loops do: big-integer coefficient
convolution and dict accumulation over exponent tuples.  It allocates only
ints and short-lived tuples, so it does not shift the program's garbage
collections.  The time spent in the kernel is not part of the region's time.
"""

from __future__ import annotations

import signal
import time

# The kernel's best time per round on the reference host: a 2-vCPU Intel
# Xeon virtual machine, Python 3.11.7, when the host was quiet.  It only
# sets the unit, so that scaled times read as seconds on that host.
NOMINAL_S = 0.004
ROUNDS = 2
INTERVAL_S = 0.15

_A = tuple(3 ** (i + 40) for i in range(80))
_B = tuple(5 ** (i + 20) - i for i in range(80))


def _kernel() -> int:
    a, b = _A, _B
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    terms: dict[tuple[int, int, int, int], int] = {}
    for i in range(len(a)):
        for j in range(len(b)):
            e = (i, j, i ^ j, i & j)
            terms[e] = terms.get(e, 0) + out[i + j] % 1009
    return len(terms)


def measure(rounds: int = ROUNDS) -> float:
    """The kernel's best time over ``rounds`` rounds, in seconds."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledTimer:
    """Times one region of code (``with timer:``) in pieces cut by kernel
    timings at its ends and every ``interval`` seconds inside it; never
    inside it if ``interval`` is None, as in a traced repetition, whose spans
    must not contain the kernel.  The first kernel timing is taken when the
    timer is made."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self.calib = [measure()]
        # (wall time, kernel time before, kernel time after) per piece
        self.pieces: list[tuple[float, float, float]] = []
        self._start = 0.0
        self._armed = False
        self._previous = None

    def _cut(self) -> None:
        wall = time.perf_counter() - self._start
        self.calib.append(measure())
        self.pieces.append((wall, self.calib[-2], self.calib[-1]))
        self._start = time.perf_counter()

    def _tick(self, *_signal_args) -> None:
        self._cut()
        # one-shot and re-armed only after the kernel ran, so that a tick
        # never interrupts another; not re-armed once the region has ended
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "ScaledTimer":
        if self.interval is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        if self.interval is not None:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._cut()

    def wall_s(self) -> float:
        return sum(wall for wall, _before, _after in self.pieces)

    def scaled_s(self) -> float:
        """The sum over the pieces of the wall time times NOMINAL_S over the
        mean kernel time at the piece's two ends."""
        return sum(wall * NOMINAL_S * 2 / (before + after)
                   for wall, before, after in self.pieces)
