"""Host-speed probe: scale CPU time to a reference core speed.

The benchmark runs on a shared host whose cores change speed by up to
about 1.7x over seconds to minutes (other tenants, SMT siblings, cache and
memory contention).  Wall time also counts the time the process waits for a
core.  CPU time drops the waiting but still grows when the core is slow.

``SpeedProbe`` measures the core's speed *while the program runs*: a
profiling timer (``ITIMER_PROF``, so ticks follow the process's CPU use)
interrupts the program every ``INTERVAL_S`` of CPU time and times a fixed,
program-independent piece of Python (``calibration_loop``) in thread CPU
time.  The mean of those samples over a window, against ``REFERENCE_S``,
says how slow the core was during that window (its *slowness*); CPU
seconds measured in the window divided by it are reference seconds.  A change that makes the
program do more work raises its reference seconds; a slower core raises
the samples and the program's CPU time together and cancels out.

The probe's own CPU time is counted separately (``cpu_s``) so callers can
take it out of the process CPU time they measure.
"""

from __future__ import annotations

import signal
import time

#: Process CPU seconds between two samples (about 3% overhead).
INTERVAL_S = 0.02
#: Iterations of ``calibration_loop`` per sample (about half a millisecond).
LOOP_ITERATIONS = 1000
#: Thread CPU seconds one sample takes on the reference core.  Reference
#: seconds are CPU seconds on a core where a sample takes exactly this long.
REFERENCE_S = 0.0006


def calibration_loop() -> int:
    """Fixed interpreter work: string formatting, dict updates, arithmetic."""
    counts: dict[str, int] = {}
    total = 0
    for i in range(LOOP_ITERATIONS):
        key = "k%d" % (i & 63)
        counts[key] = counts.get(key, 0) + i
        total += len(key) * (i % 7)
    return total + len(counts)


class SpeedProbe:
    """Samples the core's speed on a CPU-time timer while it is started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        calibration_loop()
        self.samples.append(time.thread_time() - started)

    def mark(self) -> int:
        """A window boundary: the number of samples taken so far."""
        return len(self.samples)

    def cpu_s(self, since: int = 0, until: int | None = None) -> float:
        """CPU seconds the probe itself spent in the window."""
        return sum(self.samples[since:until])

    def slowness(self, since: int = 0, until: int | None = None) -> float:
        """Mean sample time in the window over ``REFERENCE_S`` (1.0 = the
        reference core, 2.0 = half its speed)."""
        window = self.samples[since:until]
        if not window:
            raise RuntimeError("speed probe: no samples in the window")
        return sum(window) / len(window) / REFERENCE_S
