"""Time at a reference speed, for a machine whose speed keeps changing.

The machine this benchmark was written on shares its cores with other
tenants.  Its speed flips, several times a second, between two states
that differ by a factor of about 1.6, and the share of time spent in the
slow state drifts over minutes.  Plain wall and CPU times of the same
pass differ by 10-30 % from run to run.

While a ``Sampler`` runs, an interval timer interrupts the program every
``INTERVAL`` seconds and times a fixed probe: a short loop of Fraction
additions and dictionary stores, the kind of work lralg does.  Each
stretch of time between two probes is then counted at the speed the
probes around it saw, ``stretch * NOMINAL / probe time``, so a stretch
run in the slow state counts for less.  The probes' own time is left
out.  The result is how long the measured code would have taken at the
probe's nominal speed.  On that machine this cut the run-to-run spread
of a pass by a factor of two to four; it does not remove it, because
the slow state does not slow every kind of code alike.

``NOMINAL`` is a fixed constant, close to the probe's time on an Intel
Xeon vCPU at 2.1 GHz in its fast state.  It sets the unit and nothing
else, so two versions of lralg measured with the same constant compare
directly.  The probe runs with the garbage collector paused, so it does
not absorb a collection the measured code would have paid for.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
NOMINAL = 1.6e-4


def _probe() -> Fraction:
    d = {}
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i % 13 + 1)
        d[(i, i % 7)] = s
    return s


class Sampler:
    """Runs the probe on a timer; ``to_ref`` then maps perf_counter
    readings taken while it ran to seconds at the reference speed."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)
        self._ends: list[float] = []
        self._refs: list[float] = []
        self._factors: list[float] = []

    def _run_probe(self, *_):
        was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe()
        self.probes.append((start, time.perf_counter()))
        if was_enabled:
            gc.enable()

    def __enter__(self):
        self.probes.clear()
        self._previous = signal.signal(signal.SIGALRM, self._run_probe)
        self._run_probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run_probe()
        self._build()
        return False

    def _build(self) -> None:
        """Cumulative reference time at the end of each probe.  A stretch
        counts at the median speed of the probes on either side of it and
        the one after, so one probe that was preempted does not decide
        a stretch on its own."""
        durations = [e - s for s, e in self.probes]
        self._ends = [self.probes[0][1]]
        self._refs = [0.0]
        self._factors = [1.0]
        for k in range(1, len(self.probes)):
            around = durations[k - 1 : k + 2]
            factor = NOMINAL / statistics.median(around)
            stretch = self.probes[k][0] - self.probes[k - 1][1]
            self._ends.append(self.probes[k][1])
            self._refs.append(self._refs[-1] + stretch * factor)
            self._factors.append(factor)

    def to_ref(self, t: float) -> float:
        """Reference seconds from the first probe's end to perf_counter
        reading t, which must lie between the first and last probe."""
        k = bisect.bisect_left(self._ends, t)
        if k == 0:
            return 0.0
        if k == len(self._ends):
            raise ValueError("time after the sampler stopped")
        start = self.probes[k][0]
        if t >= start:  # inside probe k
            return self._refs[k]
        return self._refs[k - 1] + (t - self._ends[k - 1]) * self._factors[k]

    def ref_seconds(self, start: float, end: float) -> float:
        return self.to_ref(end) - self.to_ref(start)

    def probe_seconds(self) -> float:
        return sum(e - s for s, e in self.probes)
