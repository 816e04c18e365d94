"""Clock for the benchmark: CPU seconds, normalised to the machine's speed.

On a shared virtual machine the speed of the same serial work drifts: the
same set-up probe took 0.43 s of CPU in one run and 0.65 s a few minutes
later, and a fixed gauss_rule call ranged over a factor of two in CPU time
within two minutes.  No run length averages level shifts that long away, so
every time the benchmark reports is divided by how slowly the machine ran a
fixed reference computation at the same moment.

While a `SpeedMeter` runs, SIGALRM fires every PERIOD seconds and the
handler times `reference_work`: 256-bit arithmetic through mpmath's
stateless libmp functions, the same code the python backend runs for oscq.
It touches no mpmath context or oscq state, so interrupting an op is
harmless, and its own CPU time is taken out of the clock.  (A CPU-time
timer such as ITIMER_PROF would not do: while one is armed, Linux reads the
process CPU clock at scheduler-tick granularity.)  A normalised time reads
in seconds at the speed where `reference_work` takes REFERENCE_S; the raw
CPU seconds and the wall clock are kept beside it.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time
from contextlib import contextmanager

from mpmath.libmp import (from_int, mpf_add, mpf_div, mpf_mul, mpf_sqrt,
                          round_nearest)

PERIOD = 0.1          # seconds between speed samples
PRIOR = 4             # earlier samples that also weigh on an op's speed
REFERENCE_S = 0.002   # reference_work on the 2-core reference machine


def reference_work():
    """Multiply-add-square-root chain at 256 bits through mpmath's libmp,
    whose functions take the precision as an argument and keep no state."""
    x = mpf_div(from_int(2), from_int(3), 256, round_nearest)
    acc = from_int(1)
    for i in range(300):
        acc = mpf_add(mpf_mul(acc, x, 256, round_nearest), from_int(i), 256,
                      round_nearest)
        acc = mpf_sqrt(acc, 256, round_nearest)
    return acc


class OpTimeout(BaseException):
    """Raised inside an op that runs past the meter's deadline.  Not an
    Exception, so that no handler in the code under test swallows it."""


class SpeedMeter:
    """Speed samples, the sampling-free CPU clock of this process, and an
    optional wall-clock deadline for the op in progress."""

    def __init__(self):
        self.samples = []     # CPU seconds of each reference_work run
        self.spent = 0.0      # CPU seconds spent sampling
        self.deadline = None  # time.perf_counter() value, or None

    def sample(self, *_):
        c0 = time.process_time()
        reference_work()
        dt = time.process_time() - c0
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """CPU seconds of this process and its waited-for children, less
        the time spent sampling.  Children count so that work moved into
        worker processes still shows."""
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time() + kids.ru_utime + kids.ru_stime
                - self.spent)

    def _tick(self, *_):
        self.sample()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise OpTimeout("ran past its wall-clock deadline")

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def measure(self, fn):
        """Run fn; return (its value, normalised s, raw CPU s).

        The speed is the mean of the samples taken while fn ran, one taken
        just before it and the PRIOR before that, so that an op shorter than
        PERIOD is not normalised by a single sample.
        """
        self.sample()
        first = max(0, len(self.samples) - 1 - PRIOR)
        c0 = self.clock()
        value = fn()
        raw = self.clock() - c0
        ref = statistics.mean(self.samples[first:])
        return value, raw * REFERENCE_S / ref, raw
