"""A clock that reads time at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed changes
between phases that last from a second to minutes: the same pure-Python
loop takes 13 ms in one phase and 20 ms in the next, CPU time equals wall
time and next to no time is reported stolen.  Raw wall times of a 10 s
sample therefore spread by a quarter to a half from run to run whatever
the code does.

``SpeedClock`` measures the host's speed while the workload runs.  A
``SIGALRM`` timer interrupts the main thread every ``PERIOD_S`` and runs a
fixed calibration loop that touches nothing of the library, and records how
long it took.  Its ratio to ``CAL_REF_S`` is the host's slowness at that
moment (1.5 means everything runs 1.5 times slower than at the reference
speed), smoothed over ``SMOOTH`` neighbouring readings.
``SpeedClock.elapsed(a, b)`` converts the stretch between two raw
``time.perf_counter`` readings into seconds at the reference speed: each
stretch between two calibrations is divided by the slowness there, and the
calibrations themselves count for nothing.  The loop costs about 2% of the
run, the same in every run.

The loop is a product of two ``Fraction`` polynomials and short-lived
containers, the kind of work the library does, because the slow phases
slow that kind of work more than other loops.  Over 24 cold tables-large-n
samples whose raw times spread by 11% (quartile distance over median),
times normalised by this loop spread by 4.7%; by the same product over a
minimal rational class, 7.2%; by a small-integer loop, 7.4%; by big-integer
products, 5.7%.  ``fractions`` is loaded by ``polycauchy`` too, so a worker
times the library's import first and starts the clock after it; a stretch
before the first calibration is read at the first readings' slowness.
"""

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
SMOOTH = 9
# The calibration loop's time at the reference speed, about its median on
# a 2-vCPU shared x86-64 host under CPython 3.11.  Times that ``elapsed``
# reports are seconds on a host where the loop takes this long.
CAL_REF_S = 0.00115


# Two polynomials of eight rationals with 50- to 110-bit parts.
_LEFT = [Fraction(3 ** (40 + i), 7 ** (30 + i) + i) for i in range(8)]
_RIGHT = [Fraction(5 ** (30 + i) + 1, 2 ** (70 + i)) for i in range(8)]


def _calibration_loop() -> None:
    product = [Fraction(0)] * (len(_LEFT) + len(_RIGHT) - 1)
    for i, a in enumerate(_LEFT):
        for j, b in enumerate(_RIGHT):
            product[i + j] += a * b
    table = {}
    x = 3
    for i in range(400):
        x = (x * 1103515245 + 12345) % 2147483648
        table[(i, x & 1023)] = [x, i * x, (x, i)]


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class SpeedClock:
    """``start`` it before the measured region and ``stop`` it after, reading
    ``time.perf_counter()`` for the events in between; after ``stop``,
    ``elapsed(a, b)`` gives the reference-speed seconds between two of
    those readings."""

    def __init__(self):
        self._starts: list = []
        self._ends: list = []
        self._slowness: list = []
        self._cumulative: list = []
        self._previous = None

    def _calibrate(self, *_signal) -> None:
        # No collection may start inside the loop: it would scan the
        # workload's heap and charge that to the host's speed.
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        _calibration_loop()
        ended = time.perf_counter()
        if collecting:
            gc.enable()
        self._starts.append(started)
        self._ends.append(ended)
        self._slowness.append((ended - started) / CAL_REF_S)

    def start(self) -> None:
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()
        self._settle()

    def _settle(self) -> None:
        """Smooth the slowness readings and integrate them: ``_cumulative[i]``
        is the reference-speed time from the first calibration's end to the
        end of calibration ``i``."""
        raw = self._slowness
        half = SMOOTH // 2
        self._slowness = [_median(raw[max(0, i - half):i + half + 1]) for i in range(len(raw))]
        self._cumulative = [0.0]
        for i in range(1, len(raw)):
            gap = self._starts[i] - self._ends[i - 1]
            slow = (self._slowness[i - 1] + self._slowness[i]) / 2
            self._cumulative.append(self._cumulative[-1] + gap / slow)

    def _at(self, t: float) -> float:
        """Reference-speed time from the first calibration's end to ``t``."""
        i = bisect.bisect_right(self._ends, t) - 1
        if i < 0:
            return (t - self._ends[0]) / self._slowness[0]
        if i == len(self._ends) - 1:
            return self._cumulative[i] + (t - self._ends[i]) / self._slowness[i]
        # t lies after calibration i ended: in the gap before calibration
        # i + 1, or inside it, where no time counts.
        t = min(t, self._starts[i + 1])
        gap = self._starts[i + 1] - self._ends[i]
        done = (t - self._ends[i]) / gap if gap > 0 else 1.0
        return self._cumulative[i] + done * (self._cumulative[i + 1] - self._cumulative[i])

    def elapsed(self, a: float, b: float) -> float:
        return self._at(b) - self._at(a)

    def mean_slowness(self) -> float:
        return sum(self._slowness) / len(self._slowness)


class PlainClock:
    """The same interface without calibration, for traced runs: the span
    wrappers would otherwise see the calibration loop's time."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def elapsed(self, a: float, b: float) -> float:
        return b - a

    def mean_slowness(self) -> float:
        return 1.0
