"""Host speed, sampled while the program runs, to rescale its wall times.

The benchmark's shared 2-vCPU host slows the same code by 30-90% in spells
that flip within a second and change their mix over minutes (wall and CPU
time alike; the guest sees no steal). Timing a reference between runs misses
most of them. So, while a pass runs, ``HostSampler`` times a small fixed
computation (``probe``) from a ``SIGALRM`` handler every ``PERIOD_S``
seconds. Both slow together, so a run's time is rescaled by the mean probe
time over that run to what it would have been on a host where a probe takes
``REFERENCE_S``.

The probe is code of the benchmark's own, not of ``fidelitylab``, so no
change to the program changes it. Its mix follows the program's hot paths:
interpreted float arithmetic and attribute access, dict traffic,
``Fraction`` arithmetic and small numpy reductions. It touches no state of
the program (no random generator, no files), so exports stay byte-identical.
A Python signal handler runs between bytecodes of the main thread, never
inside a C call, and interrupted system calls are retried (PEP 475).
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

import numpy as np

#: Loop iterations of one probe.
PROBE_ITERATIONS = 300
#: Seconds one probe takes on a quiet 2-vCPU Xeon (2.1 GHz) VM, Python
#: 3.11: the unit of the benchmark's rescaled times.
REFERENCE_S = 0.0006
#: Seconds between probes: ~40 samples a second, ~3% of the host's time.
PERIOD_S = 0.025


class _Point:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float) -> None:
        self.x = x
        self.v = v

    def step(self, dt: float) -> float:
        self.x += dt * self.v
        return self.x


def _kernel(iterations: int) -> float:
    acc = 0.0
    table: dict[int, float] = {}
    exact = Fraction(0)
    array = np.arange(20.0)
    point = _Point(0.0, 0.5)
    for i in range(iterations):
        acc += point.step((i % 7) * 0.1)
        table[i & 63] = acc
        acc += max(acc, float(i), table.get(i & 31, 0.0)) * 1e-9
        if i % 8 == 0:
            exact += Fraction(i, 7) * Fraction(3, 11)
        if i % 4 == 0:
            acc += float(array[i % 20:].mean())
    return acc + float(exact)


def probe() -> float:
    """Wall seconds of one probe, with the collector off so the program's
    live heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel(PROBE_ITERATIONS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Times ``probe()`` every ``period`` seconds while installed.

    ``with HostSampler() as host: ...``; then ``host.over(a, b)`` gives the
    probes that started between ``time.perf_counter()`` readings a and b.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.warmup_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.durations.append(probe())
        self.starts.append(started)

    def __enter__(self) -> "HostSampler":
        # Let the interpreter specialise the probe before it is sampled.
        self.warmup_s = sum(probe() for _ in range(20))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def over(self, start: float, end: float) -> tuple[float, float]:
        """(total, mean) seconds of the probes that started in [start, end].

        A window too short to hold a probe takes the mean of the next one."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = self.durations[lo:hi]
        if inside:
            return sum(inside), sum(inside) / len(inside)
        return 0.0, self.durations[min(lo, len(self.durations) - 1)]
