"""Machine-speed calibration for wall-clock timings.

The host's speed drifts by up to half again over seconds to minutes, and it
exposes neither steal time nor instruction counters. Each timed unit is
therefore bracketed by a fixed calibration kernel, and may be sampled again
inside; every stretch of the unit between two kernel measurements is divided
by their mean and multiplied by REF_KERNEL_S, so that a timing reads in
seconds of a nominal machine on which the kernel takes exactly REF_KERNEL_S.

The kernel mixes interpreter-bound Python with small-array NumPy, the same
mix the program spends its time in. It imports nothing from the program, so
a faster program never makes the kernel faster.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

# Median kernel time measured on the reference machine (2-vCPU VM, CPython
# 3.11, NumPy 2.4); see README.md.
REF_KERNEL_S = 0.0045

_REPEATS = 5
_INNER_REPEATS = 3


def _kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(6000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    a = np.arange(48, dtype=float)
    for i in range(300):
        b = a * 1.0001 + i
        acc += float(np.maximum(b, 3.0).sum())
        idx = np.flatnonzero(b > 20.0 + i % 7)
        acc += float(b[idx[:5]].sum())
    return acc


def kernel_seconds(repeats: int = _REPEATS) -> float:
    """Median wall time of the calibration kernel over a few repeats."""
    if threading.active_count() != 1:
        raise RuntimeError("a thread is alive while the calibration kernel runs")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Machine-normalised timing of consecutive units.

    Each unit is bracketed by a kernel measurement, shared with the
    neighbouring unit. ``sample()`` may be called inside a unit to take a
    further, shorter kernel measurement; the kernel's own time is left out
    of the unit. The unit is then normalised piecewise: each segment between
    two measurements is divided by their mean. The host's speed drifts
    within a multi-second unit, so samples inside it track the drift better
    than the brackets alone.
    """

    def __init__(self) -> None:
        self._before: float | None = None
        self._segments: list[list[float]] | None = None
        self.last_raw = 0.0
        self.last_norm = 0.0
        self.last_samples = 0
        self.segment_factors: list[float] = []
        self.samples: list[float] = []

    @contextmanager
    def unit(self):
        if self._before is None:
            self._before = kernel_seconds(_REPEATS)
        self._segments = []
        self._k = self._before
        self._t = time.perf_counter()
        try:
            yield self
        except BaseException:
            self._segments = None
            self._before = None
            raise
        t1 = time.perf_counter()
        after = kernel_seconds(_REPEATS)
        self.samples.append(after)
        self._segments.append([t1 - self._t, self._k, after])
        self._before = after
        self.segment_factors = [REF_KERNEL_S / (0.5 * (a + b)) for _, a, b in self._segments]
        self.last_raw = sum(s[0] for s in self._segments)
        self.last_norm = sum(s[0] * f for s, f in zip(self._segments, self.segment_factors))
        self.last_samples = len(self._segments) - 1
        self._segments = None

    def due(self, min_gap: float) -> bool:
        """True inside a unit once ``min_gap`` seconds have passed since the
        last kernel measurement."""
        return self._segments is not None and time.perf_counter() - self._t >= min_gap

    def sample(self) -> int | None:
        """Measure the kernel inside the current unit; returns the index of
        the segment that starts now, or None outside a unit."""
        if self._segments is None:
            return None
        t = time.perf_counter()
        k = kernel_seconds(_INNER_REPEATS)
        self.samples.append(k)
        self._segments.append([t - self._t, self._k, k])
        self._k = k
        self._t = time.perf_counter()
        return len(self._segments)
