"""Host-speed calibration: a fixed kernel timed between the units of a run.

The shared host this benchmark was tuned on changes speed by up to ±20 %
over minutes for identical input, which is wider than the benchmark's bounds.
So every untraced run times a fixed kernel before its first unit and after
each unit.  The kernel does the kinds of work relhom does: row reduction mod
p on a small numpy matrix (the rank layer), a stable sort of a large integer
array (the pattern dedup) and dict and tuple work in Python (everything
else).  The run's median kernel time against ``REFERENCE_S`` is its speed
factor, and run.py scales every end-to-end time by it: times read as
seconds on a host where the kernel takes ``REFERENCE_S``.  The kernel and its
inputs are fixed in this file, so a change to relhom cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the host the bounds were set on
# (2 vCPUs of an Intel Xeon, Python 3, numpy, one thread)
REFERENCE_S = 0.065
SAMPLES = 8
PRIME = 32003


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.integers(0, PRIME, (40, 56), dtype=np.int64)
        self.keys = rng.integers(0, 1 << 40, 200_000, dtype=np.int64)
        self.samples: list[float] = []
        self._kernel()  # warm-up, not recorded

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            m, row = self.matrix.copy(), 0
            for col in range(m.shape[1]):
                nonzero = np.flatnonzero(m[row:, col])
                if nonzero.size == 0:
                    continue
                pivot = row + nonzero[0]
                m[[row, pivot]] = m[[pivot, row]]
                m[row] = m[row] * pow(int(m[row, col]), PRIME - 2, PRIME) % PRIME
                m[row + 1:] = (m[row + 1:] - np.outer(m[row + 1:, col], m[row])) % PRIME
                row += 1
                if row == m.shape[0]:
                    break
        np.argsort(self.keys, kind="stable")
        counts: dict[tuple[int, int], int] = {}
        for i in range(80_000):
            key = (i & 255, i >> 8)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.extend(self._kernel() for _ in range(SAMPLES))

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this host's seconds into reference seconds."""
        return REFERENCE_S / self.median_s()
