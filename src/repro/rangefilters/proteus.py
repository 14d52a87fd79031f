"""Proteus — the self-designing range filter (Knorr et al. 2022).

Combines the two prior designs: a SuRF-style trie stores every key prefix
up to a uniform depth l1 *exactly*, and a prefix Bloom filter covers the
longer prefixes at depth l2 > l1.  The pair (l1, l2) is chosen per
workload: Proteus takes a *sample of queries* and picks the configuration
with the lowest estimated FPR under the memory budget (the "contextual
prefix FPR" idea, realised here as direct simulation on the sample).

This reproduces both halves of the §2.5 description: the design itself and
the requirement for query samples / rebuild on workload shift.
"""

from __future__ import annotations

from repro.common.eliasfano import EliasFano
from repro.core.interfaces import RangeFilter
from repro.filters.bloom import BloomFilter

# Ranges spanning more l2 blocks than this skip the prefix-Bloom level.
MAX_BLOCKS = 8


class _TrieLevel:
    """Exact set of l1-bit prefixes, Elias–Fano coded (FST stand-in)."""

    def __init__(self, keys: list[int], key_bits: int, depth: int):
        self.depth = depth
        self.shift = key_bits - depth
        prefixes = sorted({k >> self.shift for k in keys})
        self._set = EliasFano(prefixes, universe=(1 << depth) + 1)

    def range_may_contain(self, lo: int, hi: int) -> bool:
        return self._set.contains_in_range(lo >> self.shift, hi >> self.shift)

    @property
    def size_in_bits(self) -> int:
        return self._set.size_in_bits


class Proteus(RangeFilter):
    """Trie-to-l1 + prefix-Bloom-at-l2 range filter with self-tuning."""

    def __init__(
        self,
        keys: list[int],
        *,
        key_bits: int = 48,
        bits_per_key: float = 16.0,
        sample_queries: list[tuple[int, int]] | None = None,
        l1: int | None = None,
        l2: int | None = None,
        seed: int = 0,
    ):
        self.key_bits = key_bits
        self.seed = seed
        self._n = len(keys)
        if l1 is None or l2 is None:
            l1, l2 = self._tune(keys, key_bits, bits_per_key, sample_queries, seed)
        if not 1 <= l1 < l2 <= key_bits:
            raise ValueError("need 1 <= l1 < l2 <= key_bits")
        self.l1 = l1
        self.l2 = l2
        self._trie = _TrieLevel(keys, key_bits, l1)
        bloom_budget = max(1.0, bits_per_key - self._trie.size_in_bits / max(1, self._n))
        epsilon = min(0.99, max(1e-9, 0.6185**bloom_budget))
        self._bloom = BloomFilter(max(1, self._n), epsilon, seed=seed ^ 0x9E)
        self._l2_shift = key_bits - l2
        for key in keys:
            self._bloom.insert(key >> self._l2_shift)

    # -- self-design ------------------------------------------------------------

    @classmethod
    def _tune(
        cls,
        keys: list[int],
        key_bits: int,
        bits_per_key: float,
        sample_queries: list[tuple[int, int]] | None,
        seed: int,
    ) -> tuple[int, int]:
        """Pick (l1, l2) minimising FPR on the query sample.

        Without a sample, fall back to a generic configuration.  With one,
        build small candidates and measure — the sample is what the paper's
        CPFPR model summarises analytically.
        """
        if not sample_queries or not keys:
            return max(1, key_bits - 24), max(2, key_bits - 8)
        key_set = sorted(set(keys))
        candidates = []
        for l1_off in (28, 24, 20, 16):
            for l2_off in (12, 8, 4):
                l1, l2 = key_bits - l1_off, key_bits - l2_off
                if 1 <= l1 < l2 <= key_bits:
                    candidates.append((l1, l2))
        best, best_fpr = candidates[0], 1.1
        sample = sample_queries[:200]
        for l1, l2 in candidates:
            trial = cls(
                key_set,
                key_bits=key_bits,
                bits_per_key=bits_per_key,
                l1=l1,
                l2=l2,
                seed=seed,
            )
            fps = 0
            for lo, hi in sample:
                if trial.may_intersect(lo, hi) and not _truly_intersects(key_set, lo, hi):
                    fps += 1
            fpr = fps / len(sample)
            if fpr < best_fpr:
                best, best_fpr = (l1, l2), fpr
        return best

    # -- queries ---------------------------------------------------------------------

    def may_intersect(self, lo: int, hi: int) -> bool:
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        if self._n == 0:
            return False
        # Level 1: exact prefixes — a miss here is definitive.
        if not self._trie.range_may_contain(lo, hi):
            return False
        # Level 2: refine with the prefix Bloom when the range is narrow
        # enough at depth l2.
        first, last = lo >> self._l2_shift, hi >> self._l2_shift
        if last - first + 1 > MAX_BLOCKS:
            return True
        return any(
            self._bloom.may_contain(block) for block in range(first, last + 1)
        )

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return self._trie.size_in_bits + self._bloom.size_in_bits


def _truly_intersects(sorted_keys: list[int], lo: int, hi: int) -> bool:
    from bisect import bisect_left

    i = bisect_left(sorted_keys, lo)
    return i < len(sorted_keys) and sorted_keys[i] <= hi
