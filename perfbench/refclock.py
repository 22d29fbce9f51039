"""Wall time rescaled to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by tens of per
cent within seconds (another tenant's load, not steal time: user time
tracks wall time).  A fixed pure-Python kernel, timed between verdicts,
samples how slow the machine is at that moment; a verdict's time is
divided by the slowness around it.  The result is the time the verdict
would take on a machine where the kernel takes :data:`KERNEL_REF_S`.
The kernel is part of the benchmark, not of the checker, so a change to
the checker cannot move it.

Both raw and rescaled figures are printed; the rescaled ones are the
benchmark's metrics.
"""

from __future__ import annotations

import bisect
import time

#: Iterations of the calibration kernel (about 13 ms on the reference
#: machine, a 2-vCPU shared VM).
KERNEL_ITERATIONS = 50_000

#: The kernel's duration on the reference machine.  Metrics are reported
#: in seconds of that machine.
KERNEL_REF_S = 0.0125

#: Least wall time between two samples (about 5% of a run's time).
SAMPLE_EVERY_S = 0.25

#: Most kernel runs averaged into one sample.  A sample after a long gap
#: (a long verdict) averages one run per ``SAMPLE_EVERY_S`` of the gap,
#: since one run is a noisy estimate: speed moves by tens of per cent
#: from one second to the next.
MAX_RUNS = 5


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: dictionary, list and
    integer work, the operations the checker's hot loops are made of."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        key = i & 1023
        acc = (acc + table.get(key, i) * 3) & 0xFFFF
        table[key] = acc ^ i
        if not i & 7:
            items.append((key, acc))
    return time.perf_counter() - start


class RefClock:
    """Slowness samples over a run, and the rescaling they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.slowness: list[float] = []
        #: Wall seconds spent running the kernel.
        self.kernel_s = 0.0

    def sample(self, runs: int = 1) -> None:
        seconds = [kernel_seconds() for _ in range(runs)]
        self.times.append(time.perf_counter())
        self.slowness.append(sum(seconds) / runs / KERNEL_REF_S)
        self.kernel_s += sum(seconds)

    def tick(self) -> None:
        """Sample unless the last sample is recent; call between verdicts."""
        if not self.times:
            self.sample()
            return
        gap = time.perf_counter() - self.times[-1]
        if gap >= SAMPLE_EVERY_S:
            self.sample(min(MAX_RUNS, round(gap / SAMPLE_EVERY_S)))

    def slowness_around(self, start: float, end: float) -> float:
        """Mean slowness of the last sample before ``start`` and the first
        after ``end`` (either alone at the ends of the run)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        around = [
            self.slowness[index] for index in (before, after)
            if 0 <= index < len(self.times)
        ]
        return sum(around) / len(around)

    def reference_seconds(self, start: float, end: float) -> float:
        return (end - start) / self.slowness_around(start, end)
