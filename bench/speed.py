"""Machine-speed samples, so that timings compare across a drifting host.

The shared 2-core hosts this benchmark was built on change speed by up to
50% within seconds: a fixed numpy kernel took 32 ms in one second and 50 ms
in the next, with CPU time tracking wall time and no steal time reported.
A wall-clock median over a 10 s window then depends on how much of the
window fell in a slow stretch, and ten runs spread by up to a third.

A ``SpeedSampler`` times a small fixed reference kernel: at every
training-step boundary (``sample``), and every ``INTERVAL_S`` seconds from
a SIGALRM handler inside ``periodic()`` blocks.  Python runs the handler
between bytecodes of the main thread, so it never interrupts a numpy call
and touches no state of the program.  ``at_reference_speed(start, end)``
turns a wall-clock interval into the time it would have taken on a machine
where the kernel takes ``REFERENCE_S``: each stretch between two samples is
scaled by the kernel's local time, the median of the ``2 * NEIGHBOURS``
samples around it, and the time spent in the samples is left out.

The kernel is a short GRU-like loop: small matrix products, logistic and
tanh, and Python calls, the mix that a training step is made of.  In six
back-to-back 3.5 s trainings at batch 32 on such a host, the raw median
step ranged over 14.2-21.1 ms and the scaled one over 18.5-18.9 ms.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 1e-3
NEIGHBOURS = 3


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 16))
        self._w = rng.standard_normal((16, 192)) * 0.1
        self._h = rng.standard_normal((32, 64))
        self._u = rng.standard_normal((64, 192)) * 0.1
        # (start, end, kernel seconds) per sample, in time order
        self.samples: list[tuple[float, float, float]] = []
        self._scale: list[float] = []
        self._starts: list[float] = []
        self.kernel()  # warm up

    def kernel(self) -> float:
        start = time.perf_counter()
        h = self._h
        for _ in range(16):
            a = self._x @ self._w + h @ self._u
            z = 1.0 / (1.0 + np.exp(-a[:, :64]))
            c = np.tanh(a[:, 128:])
            h = z * h + (1.0 - z) * c
        return time.perf_counter() - start

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        took = self.kernel()
        self.samples.append((start, time.perf_counter(), took))

    @contextmanager
    def periodic(self):
        """Sample on entry, every INTERVAL_S inside the block, and on exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL if previous is None else previous)
            self.sample()

    def kernel_median_s(self) -> float:
        return statistics.median(k for _, _, k in self.samples)

    def at_reference_speed(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at reference speed, samples excluded.

        The interval must lie between the first sample and the last.
        """
        samples = self.samples
        if not samples or start < samples[0][0] or end > samples[-1][1]:
            raise ValueError("interval is not bracketed by speed samples")
        if len(self._scale) != len(samples) - 1:  # stretch k: sample k to k + 1
            kernels = [k for _, _, k in samples]
            self._scale = [REFERENCE_S / statistics.median(kernels[max(0, k + 1 - NEIGHBOURS):
                                                                   k + 1 + NEIGHBOURS])
                           for k in range(len(samples) - 1)]
            self._starts = [s for s, _, _ in samples]
        total = 0.0
        for k in range(max(0, bisect.bisect_right(self._starts, start) - 1), len(samples) - 1):
            lo = max(start, samples[k][1])
            hi = min(end, samples[k + 1][0])
            if hi > lo:
                total += (hi - lo) * self._scale[k]
            if samples[k + 1][0] >= end:
                break
        return total
