"""Adaptive cuckoo filter (Mitzenmacher, Pontarelli & Reviriego 2020).

A cuckoo filter whose slots carry a small *hash selector*: the stored
fingerprint of a key is ``fp(key, selector)``.  When the host dictionary
discovers a false positive, the filter bumps the selector of the offending
slot and recomputes the resident's fingerprint from the remote
representation — with high probability the replayed query stops matching,
while the resident stays correctly represented (no false negatives, ever).
"""

from __future__ import annotations

import math

from repro.common.hashing import fingerprint, hash64, hash_to_range, splitmix64
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import AdaptiveFilter, Key

BUCKET_SIZE = 4
MAX_KICKS = 500
SELECTOR_BITS = 2
N_SELECTORS = 1 << SELECTOR_BITS


class _Slot:
    __slots__ = ("fp", "selector", "key")

    def __init__(self, fp: int, selector: int, key: Key):
        self.fp = fp
        self.selector = selector
        self.key = key  # remote representation (not charged to size_in_bits)


class AdaptiveCuckooFilter(AdaptiveFilter):
    """Cuckoo filter with per-slot hash selectors for adaptivity."""

    supports_deletes = True

    def __init__(
        self,
        n_buckets: int,
        fingerprint_bits: int,
        *,
        seed: int = 0,
    ):
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        if not 1 <= fingerprint_bits <= 56:
            raise ValueError("fingerprint_bits must be in [1, 56]")
        self.n_buckets = 1 << max(1, (n_buckets - 1).bit_length())
        self.fingerprint_bits = fingerprint_bits
        self.seed = seed
        self._buckets: list[list[_Slot]] = [[] for _ in range(self.n_buckets)]
        self._n = 0
        self.adaptations = 0
        import numpy as np

        self._rng = np.random.default_rng(seed ^ 0xACF)

    # -- hashing ----------------------------------------------------------------

    def _fp(self, key: Key, selector: int) -> int:
        return fingerprint(key, self.fingerprint_bits, self.seed ^ (0xA0 + selector))

    def _index1(self, key: Key) -> int:
        return hash_to_range(key, self.n_buckets, self.seed ^ 0x1D)

    def _alt_index(self, index: int, key: Key) -> int:
        # The ACF relocates by key (the remote rep is available), which keeps
        # the pairing exact under selector changes.
        h = splitmix64(hash64(key, self.seed ^ 0x2E)) & (self.n_buckets - 1)
        if h == 0:
            h = 1
        return index ^ h

    def _candidate_buckets(self, key: Key) -> tuple[int, int]:
        i1 = self._index1(key)
        return i1, self._alt_index(i1, key)

    # -- operations -----------------------------------------------------------------

    def insert(self, key: Key) -> None:
        i1, i2 = self._candidate_buckets(key)
        for index in (i1, i2):
            if len(self._buckets[index]) < BUCKET_SIZE:
                self._buckets[index].append(_Slot(self._fp(key, 0), 0, key))
                self._n += 1
                return
        # Kick chain, relocating by stored keys.
        index = i1 if self._rng.random() < 0.5 else i2
        current = _Slot(self._fp(key, 0), 0, key)
        for _ in range(MAX_KICKS):
            victim_pos = int(self._rng.integers(BUCKET_SIZE))
            bucket = self._buckets[index]
            current, bucket[victim_pos] = bucket[victim_pos], current
            index = self._alt_index(index, current.key)
            if len(self._buckets[index]) < BUCKET_SIZE:
                self._buckets[index].append(current)
                self._n += 1
                return
        self._buckets[index].append(current)  # overflow cell; never lose a key
        self._n += 1
        raise FilterFullError("adaptive cuckoo filter exceeded max kicks")

    def may_contain(self, key: Key) -> bool:
        for index in self._candidate_buckets(key):
            for slot in self._buckets[index]:
                if slot.fp == self._fp(key, slot.selector):
                    return True
        return False

    def delete(self, key: Key) -> None:
        for index in self._candidate_buckets(key):
            bucket = self._buckets[index]
            for pos, slot in enumerate(bucket):
                if slot.fp == self._fp(key, slot.selector):
                    bucket.pop(pos)
                    self._n -= 1
                    return
        raise DeletionError("delete of a key that was never inserted")

    def report_false_positive(self, key: Key) -> None:
        """Bump the selector of every slot the negative *key* matches.

        The slot's resident is re-fingerprinted under the next selector (its
        original key is in the remote representation), so the resident stays
        represented while *key* stops matching with probability 1 − 2^-f.
        """
        for index in self._candidate_buckets(key):
            for slot in self._buckets[index]:
                if slot.fp == self._fp(key, slot.selector):
                    slot.selector = (slot.selector + 1) % N_SELECTORS
                    slot.fp = self._fp(slot.key, slot.selector)
                    self.adaptations += 1

    # -- accounting ---------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        """Fingerprint + selector bits per slot (keys live with the remote
        dictionary and are not charged, as in the ACF paper)."""
        return self.n_buckets * BUCKET_SIZE * (
            self.fingerprint_bits + SELECTOR_BITS
        )

    @classmethod
    def for_capacity(
        cls, capacity: int, epsilon: float, *, seed: int = 0
    ) -> "AdaptiveCuckooFilter":
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        b = BUCKET_SIZE
        f = max(1, math.ceil(math.log2(2 * b / epsilon)))
        n_buckets = max(1, math.ceil(capacity / (0.95 * b)))
        return cls(n_buckets, f, seed=seed)
