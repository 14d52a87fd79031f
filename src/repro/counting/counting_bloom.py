"""Counting Bloom filter (Fan et al. 1998 summary cache lineage).

A Bloom filter whose bits are fixed-width counters.  The count estimate for
a key is the minimum of its counters, which can only over-count — *unless*
a counter saturates.  A saturated counter can never be decremented, so
after deletes the filter may **under-count** and even produce false
negatives: exactly the §2.6 failure mode this reproduction demonstrates
(experiment T7).  ``rebuild_with_wider_counters`` is the paper's fix.
"""

from __future__ import annotations

import math

from repro.common.bitvector import PackedArray
from repro.common.hashing import hash_pair
from repro.core.analysis import bloom_optimal_hashes
from repro.core.errors import DeletionError
from repro.core.interfaces import CountingFilter, Key

DEFAULT_COUNTER_BITS = 4  # the classic choice: 4-bit counters


class CountingBloomFilter(CountingFilter):
    """Counting Bloom filter with fixed-width, saturating counters."""

    def __init__(
        self,
        capacity: int,
        epsilon: float,
        *,
        counter_bits: int = DEFAULT_COUNTER_BITS,
        seed: int = 0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 1 <= counter_bits <= 32:
            raise ValueError("counter_bits must be in [1, 32]")
        self.capacity = capacity
        self.epsilon = epsilon
        self.counter_bits = counter_bits
        self.seed = seed
        bits_per_key = math.log2(math.e) * math.log2(1 / epsilon)
        self._m = max(64, int(math.ceil(capacity * bits_per_key)))
        self._k = bloom_optimal_hashes(bits_per_key)
        self._counters = PackedArray(self._m, counter_bits)
        self._max_count = (1 << counter_bits) - 1
        self._n = 0
        self.saturation_events = 0

    def _positions(self, key: Key) -> list[int]:
        h1, h2 = hash_pair(key, self.seed)
        h2 |= 1
        return [(h1 + i * h2) % self._m for i in range(self._k)]

    def insert(self, key: Key) -> None:
        for pos in self._positions(key):
            value = self._counters.get(pos)
            if value < self._max_count:
                self._counters.set(pos, value + 1)
            else:
                self.saturation_events += 1
        self._n += 1

    def delete(self, key: Key) -> None:
        positions = self._positions(key)
        if any(self._counters.get(pos) == 0 for pos in positions):
            raise DeletionError("delete of a key that was never inserted")
        for pos in positions:
            value = self._counters.get(pos)
            # A saturated counter is "stuck": its true value is unknown, so
            # decrementing it could make it under-count other keys.  The
            # classic CBF decrements anyway — that is the §2.6 bug we keep,
            # so the experiment can demonstrate it.
            self._counters.set(pos, value - 1)
        self._n -= 1

    def count(self, key: Key) -> int:
        return min(self._counters.get(pos) for pos in self._positions(key))

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return self._m * self.counter_bits

    def rebuild_with_wider_counters(self, items: dict[Key, int]) -> "CountingBloomFilter":
        """The paper's remedy: rebuild from the true multiset, wider counters."""
        rebuilt = CountingBloomFilter(
            self.capacity,
            self.epsilon,
            counter_bits=min(32, self.counter_bits * 2),
            seed=self.seed,
        )
        for key, multiplicity in items.items():
            for _ in range(multiplicity):
                rebuilt.insert(key)
        return rebuilt
