"""Machine-speed probe, so that timings read in seconds at a fixed speed.

On a small shared virtual machine the speed of one thread drifts by up to
2x in phases of seconds to minutes, with no steal time to show for it, so
wall times of the same code on the same inputs spread by 30-50 % across a
set of runs. The probe samples that speed while the program runs: a timer
signal fires every ``PERIOD_S`` and its handler times ``kernel``, a fixed
pure-Python loop that uses no ``balancecast`` code. A measured interval's
speed factor is the mean of ``REF_KERNEL_S / kernel time`` over the samples
taken in it (plus one just before and one just after), and its time at
reference speed is its wall time times that factor: the seconds it would
have taken at the speed where the kernel runs in ``REF_KERNEL_S``.

The handler's own time is kept off the clock: ``clock_ns`` is
``perf_counter_ns`` minus all the time spent in the probe, and the handler
runs only between bytecodes, so no interval measured with it includes a
sample.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
# The kernel's time in the fast phase of a 2-vCPU Xeon VM (Python 3.11); its
# slow phase reads about 0.6 ms.
REF_KERNEL_S = 0.00035


def kernel() -> float:
    """About 1500 loop iterations of integer, float and dict work."""
    table = {}
    acc = 0.0
    for i in range(1500):
        x = (i * 2654435761) % 1000003
        acc += x * 1e-6 - (x % 7) * 0.5
        table[x & 255] = acc
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent_ns = 0

    def sample(self, *_) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        self.samples.append((time.perf_counter_ns() - t0) / 1e9)
        self.spent_ns += time.perf_counter_ns() - t0

    def clock_ns(self) -> int:
        """``perf_counter_ns`` with the probe's own time taken out."""
        return time.perf_counter_ns() - self.spent_ns

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> tuple[int, int]:
        """Start a measured interval; pass the mark to ``end``."""
        self.sample()
        return len(self.samples) - 1, self.clock_ns()

    def end(self, mark: tuple[int, int]) -> tuple[float, float]:
        """(wall seconds, speed factor) of the interval begun at ``mark``."""
        first, start = mark
        wall = (self.clock_ns() - start) / 1e9
        self.sample()
        speeds = [REF_KERNEL_S / s for s in self.samples[first:]]
        return wall, sum(speeds) / len(speeds)
