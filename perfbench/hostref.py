"""Host normalization: a fixed reference kernel timed between cells.

Wall-clock seconds on a shared host drift by tens of percent over seconds to
minutes (other tenants, frequency scaling). The benchmark therefore times a
fixed reference kernel between cells and set-ups, never while they run.
Each timed interval is scaled by ``NOMINAL_REF_MS`` divided by the kernel
time around it: the mean of the medians of the samples just before and
just after the interval.
Intervals without samples on both sides use the run's median sample. The
result stays in seconds, as they would read on a host where the kernel
takes exactly ``NOMINAL_REF_MS``.

The kernel is mostly the program's dominant operation, a dense layer
(matmul plus ReLU) on a batch of flattened images, with small shares of
elementwise math, sorting and a Python dict loop. On the calibration host
its slowdowns tracked those of campaign cells better than six other
candidates (Python loops, streaming memory, small matmuls, and an
allocation-free warmed-up variant of this kernel); pure-Python work slows
down almost twice as much as the cells when the host is contended. It
imports nothing from ``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_REF_MS", "reference_kernel", "HostReference"]

# Typical kernel time on the calibration host: a 2-core x86-64 VM with
# single-threaded BLAS. Only ratios matter; the constant just keeps
# normalized seconds close to raw seconds there.
NOMINAL_REF_MS = 8.0

_RNG = np.random.default_rng(20190601)
_IMAGES = _RNG.standard_normal((300, 784))
_WEIGHTS = _RNG.standard_normal((784, 200))
_X = _RNG.standard_normal(20_000)
_S = _RNG.permutation(20_000).astype(np.float64)


def reference_kernel() -> float:
    """Run the fixed reference work once and return a checksum of it."""
    checksum = 0.0
    for _ in range(3):
        checksum += float(np.maximum(_IMAGES @ _WEIGHTS, 0.0)[0, 0])
    wave = np.exp(-_X * _X) * np.tanh(_X) + np.sqrt(np.abs(_X))
    checksum += float(np.sort(_S + wave)[0])
    counts: dict[int, int] = {}
    for i in range(3_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return checksum + len(counts)


class HostReference:
    """Reference-kernel samples on a timeline, and the scaling they imply."""

    def __init__(self, nominal_ms: float = NOMINAL_REF_MS) -> None:
        self.nominal_ms = nominal_ms
        self.samples_ms: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.spent_s = 0.0

    def sample(self, count: int = 1) -> None:
        """Time ``count`` kernel runs back to back."""
        for _ in range(count):
            started = time.perf_counter()
            reference_kernel()
            ended = time.perf_counter()
            self.starts.append(started)
            self.ends.append(ended)
            self.samples_ms.append((ended - started) * 1e3)
            self.spent_s += ended - started

    @property
    def ref_ms(self) -> float:
        """Median sample in milliseconds (the run's typical host speed)."""
        if not self.samples_ms:
            raise ValueError("no reference samples taken")
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Run-wide multiplier from raw to normalized seconds."""
        return self.scale_for(self.ref_ms)

    def scale_for(self, reference_ms: float) -> float:
        """Multiplier for work done while the kernel took ``reference_ms``."""
        return self.nominal_ms / reference_ms

    def normalize(self, raw_seconds: float) -> float:
        """Scale raw seconds by the run-wide factor."""
        return raw_seconds * self.factor

    def local_factor(self, start: float, end: float, window: int = 1) -> float:
        """Multiplier for an interval ``[start, end]`` on the perf_counter clock.

        Uses the median of the ``window`` samples that ended last before
        ``start`` and the median of the ``window`` samples that started first
        after ``end``, averaged.
        """
        before_end = bisect.bisect_right(self.ends, start)
        after_start = bisect.bisect_left(self.starts, end)
        before = self.samples_ms[max(before_end - window, 0) : before_end]
        after = self.samples_ms[after_start : after_start + window]
        if not before or not after:
            return self.factor
        return self.scale_for((statistics.median(before) + statistics.median(after)) / 2)

    def normalize_interval(self, raw_seconds: float, start: float, end: float, window: int = 1):
        """Scale ``raw_seconds`` of work done within ``[start, end]``."""
        return raw_seconds * self.local_factor(start, end, window)
