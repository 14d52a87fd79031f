"""Prefix Bloom filter — the classic single-level range trick (RocksDB).

Stores every key's length-*l* prefix in one Bloom filter.  A range query is
answered by probing the (few) prefix blocks the range touches; ranges that
span more than ``MAX_BLOCKS`` blocks get no filtering.  The simplest point
in the §2.5 design space and Proteus's second level.
"""

from __future__ import annotations

from repro.core.interfaces import RangeFilter
from repro.filters.bloom import BloomFilter

MAX_BLOCKS = 4


class PrefixBloomFilter(RangeFilter):
    """Bloom filter over fixed-length key prefixes."""

    def __init__(
        self,
        keys: list[int],
        *,
        key_bits: int = 48,
        prefix_bits: int = 36,
        bits_per_key: float = 14.0,
        seed: int = 0,
    ):
        if not 1 <= prefix_bits <= key_bits:
            raise ValueError("prefix_bits must be in [1, key_bits]")
        self.key_bits = key_bits
        self.prefix_bits = prefix_bits
        self._shift = key_bits - prefix_bits
        self._n = len(keys)
        epsilon = min(0.99, max(1e-9, 0.6185**bits_per_key))
        self._bloom = BloomFilter(max(1, self._n), epsilon, seed=seed ^ 0x9B)
        for key in keys:
            if key < 0 or key >= 1 << key_bits:
                raise ValueError("key out of universe range")
            self._bloom.insert(key >> self._shift)

    def may_intersect(self, lo: int, hi: int) -> bool:
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        if self._n == 0:
            return False
        first, last = lo >> self._shift, hi >> self._shift
        if last - first + 1 > MAX_BLOCKS:
            return True  # range spans too many blocks: no filtering
        return any(
            self._bloom.may_contain(block) for block in range(first, last + 1)
        )

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return self._bloom.size_in_bits
