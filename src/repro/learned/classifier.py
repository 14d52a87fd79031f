"""Learned filter: score model + backup filter (the Kraska et al. sandwich).

Trains a density model over the integer key space (a histogram classifier —
deliberately simple, per §2.8's "train a classifier to predict the
likelihood of each potential key being queried and the probability of its
existence"): bins where members concentrate get high scores.  Keys the
model confidently predicts positive need no filter storage at all; the
remaining members go into a backup Bloom filter so false negatives are
impossible.

The win materialises when keys are *clustered* (real-world IDs, timestamps,
genomic offsets): the model predicts whole clusters positive for the cost
of a few histogram counters, and the backup filter shrinks accordingly.
For uniformly scattered keys the model learns nothing and the design
gracefully degrades to a plain Bloom filter — both regimes are covered by
experiment T11.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.interfaces import Filter
from repro.filters.bloom import BloomFilter

N_BINS = 1024


class LearnedFilter(Filter):
    """Histogram-score model sandwiched with a backup Bloom filter."""

    def __init__(
        self,
        keys: Iterable[int],
        *,
        universe: int,
        epsilon: float = 0.01,
        threshold: float = 0.5,
        sample_negatives: Iterable[int] | None = None,
        seed: int = 0,
    ):
        key_list = [int(k) for k in keys]
        if any(k < 0 or k >= universe for k in key_list):
            raise ValueError("key out of universe range")
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.universe = universe
        self._n = len(key_list)

        # Positive density per bin; negatives (sampled or assumed uniform)
        # give the contrast.
        pos_counts = np.bincount(
            [self._bin(k) for k in key_list], minlength=N_BINS
        ).astype(np.float64)
        if sample_negatives is not None:
            neg_list = [int(k) for k in sample_negatives]
            neg_counts = np.bincount(
                [self._bin(k) for k in neg_list], minlength=N_BINS
            ).astype(np.float64)
        else:
            # No query sample: assume uniform negative traffic and demand a
            # 4× density contrast before trusting the model, so uniformly
            # scattered keys degrade to a plain backup filter instead of
            # predicting everything positive.
            neg_counts = np.full(N_BINS, max(1.0, 4.0 * self._n / N_BINS))
        with np.errstate(divide="ignore", invalid="ignore"):
            score = pos_counts / (pos_counts + neg_counts)
        self._scores = np.nan_to_num(score)
        self._predicted = self._scores >= threshold

        # Members the model does NOT confidently cover go into the backup.
        uncovered = [k for k in key_list if not self._predicted[self._bin(k)]]
        self._backup = BloomFilter(max(1, len(uncovered)), epsilon, seed=seed ^ 0x1E)
        for key in uncovered:
            self._backup.insert(key)
        self._n_uncovered = len(uncovered)

    def _bin(self, key: int) -> int:
        return min(N_BINS - 1, key * N_BINS // self.universe)

    def may_contain(self, key: int) -> bool:
        if not 0 <= key < self.universe:
            return False
        if self._predicted[self._bin(key)]:
            return True
        return self._backup.may_contain(key)

    def __len__(self) -> int:
        return self._n

    @property
    def model_coverage(self) -> float:
        """Fraction of members answered by the model alone."""
        return 1 - self._n_uncovered / self._n if self._n else 0.0

    @property
    def size_in_bits(self) -> int:
        """One predicted bit per bin + the backup filter."""
        return N_BINS + self._backup.size_in_bits
