"""Machine-speed calibration for CPU times measured on a shared host.

On a shared host the same single-threaded work runs up to twice as slow
for stretches of seconds to minutes, and process CPU time slows with it, so
raw times from two runs cannot be compared.  :class:`SpeedSampler` probes
the machine's current speed all through a run: every ``INTERVAL_S`` of
process CPU time a ``SIGPROF`` handler times a small fixed kernel.  All CPU
times are the main thread's (``time.thread_time``): the workloads run in
one thread, and a helper thread a library starts must not count.  The
kernel never touches follmer_lab; it runs the mix of work the workloads do
(Python ints, ``Fraction`` arithmetic, numpy Philox streams with small
draws).  A call's CPU time, less the probes that ran inside it, is then
rescaled by the kernel's speed during the call:

    rescaled = (cpu - probes) * KERNEL_REF_S / median(kernel times near the call)

``KERNEL_REF_S`` is about the kernel's median CPU time on a 2-vCPU Intel
Xeon VM (Python 3.11, numpy 2.4); it only makes the rescaled numbers read
as seconds on that machine.  A faster program still shows as a smaller
number, because the kernel does not run program code.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

KERNEL_REF_S = 0.006
INTERVAL_S = 0.25
MIN_PROBES = 4  # a call shorter than this many probes borrows its neighbours'


def kernel(np) -> int:
    acc = 0
    for i in range(6_000):
        acc += i * i % 7
    f = Fraction(1)
    for i in range(1, 200):
        f = f * Fraction(i + 1, i) + Fraction(1, i * i)
    for i in range(100):
        g = np.random.Generator(np.random.Philox(key=np.array([np.uint64(7), np.uint64(i)])))
        acc += int(g.standard_normal(40).sum() > 0)
    return acc


def timed_kernel(np) -> float:
    start = time.thread_time()
    kernel(np)
    return time.thread_time() - start


class SpeedSampler:
    """Times :func:`kernel` every ``INTERVAL_S`` of CPU time while started."""

    def __init__(self, np) -> None:
        self._np = np
        self._busy = False
        self.probes: List[Tuple[float, float]] = []  # (thread CPU time at start, kernel CPU time)

    def _probe(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.thread_time()
            kernel(self._np)
            self.probes.append((start, time.thread_time() - start))
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def rescale(self, cpu_start: float, cpu_end: float) -> float:
        """CPU time of [cpu_start, cpu_end] without probes, at reference speed."""
        inside = [p for p in self.probes if cpu_start <= p[0] < cpu_end]
        near = inside
        if len(near) < MIN_PROBES:
            mid = (cpu_start + cpu_end) / 2.0
            near = sorted(self.probes, key=lambda p: abs(p[0] - mid))[:MIN_PROBES]
        own = cpu_end - cpu_start - sum(d for _, d in inside)
        return own * KERNEL_REF_S / statistics.median(d for _, d in near)
