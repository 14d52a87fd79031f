"""SNARF — Sparse Numerical Array-Based Range Filter (Vaidya et al. 2022).

The "learned" §2.5 design: model the keys' CDF with a linear spline, map
every key through the model into a sparse bit array of ``n × multiplier``
positions, and answer a range query by asking whether any bit is set in the
query's mapped interval.  The bit array is stored compressed (Elias–Fano
over the set positions, as in the paper's "sparse" variant); the multiplier
is the space/FPR knob: FPR ≈ range-density / multiplier for ranges small
relative to the spline resolution.
"""

from __future__ import annotations

import numpy as np

from repro.common.eliasfano import EliasFano
from repro.core.interfaces import RangeFilter

SPLINE_POINTS = 256


class SNARF(RangeFilter):
    """Learned-CDF sparse-bit-array range filter."""

    def __init__(
        self,
        keys: list[int],
        *,
        key_bits: int = 48,
        multiplier: float = 8.0,
        seed: int = 0,
    ):
        if multiplier <= 1:
            raise ValueError("multiplier must exceed 1")
        self.key_bits = key_bits
        self.multiplier = multiplier
        unique = sorted(set(keys))
        if any(k < 0 or k >= (1 << key_bits) for k in unique):
            raise ValueError("key out of universe range")
        self._n = len(unique)
        self._m = max(1, int(self._n * multiplier))

        if self._n == 0:
            self._knots_x = np.asarray([0, (1 << key_bits) - 1], dtype=np.float64)
            self._knots_y = np.asarray([0.0, 0.0])
            self._positions = EliasFano([], universe=self._m + 1)
            return

        # Spline knots: every (n // SPLINE_POINTS)-th key, plus the ends of
        # the universe so the model is total.
        step = max(1, self._n // SPLINE_POINTS)
        xs = [0] + [unique[i] for i in range(0, self._n, step)] + [
            unique[-1],
            (1 << key_bits) - 1,
        ]
        ys = [0.0] + [i / self._n for i in range(0, self._n, step)] + [1.0, 1.0]
        # Deduplicate x while keeping the model monotone.
        knots_x, knots_y = [], []
        for x, y in zip(xs, ys):
            if knots_x and x <= knots_x[-1]:
                knots_y[-1] = max(knots_y[-1], y)
                continue
            knots_x.append(x)
            knots_y.append(y)
        self._knots_x = np.asarray(knots_x, dtype=np.float64)
        self._knots_y = np.maximum.accumulate(np.asarray(knots_y, dtype=np.float64))

        positions = sorted({self._map(k) for k in unique})
        self._positions = EliasFano(positions, universe=self._m + 1)

    def _map(self, key: int) -> int:
        """Model position of *key* in the sparse array (monotone in key)."""
        cdf = float(np.interp(float(key), self._knots_x, self._knots_y))
        return min(self._m, int(cdf * self._m))

    def may_intersect(self, lo: int, hi: int) -> bool:
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        if self._n == 0:
            return False
        return self._positions.contains_in_range(self._map(lo), self._map(hi))

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        """Elias–Fano-coded positions + the spline model."""
        model = self._knots_x.size * 2 * 64
        return self._positions.size_in_bits + model
