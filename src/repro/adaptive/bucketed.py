"""Shared table for the two single-table adaptive filters (§2.3).

The adaptive quotient filter and the telescoping filter both keep one
table of buckets holding a fingerprint and the key's remote
representation per slot.  They differ only in what a slot stores and how
a false positive changes it: a subclass makes slots (:meth:`_new_slot`),
matches them (:meth:`_matches`), charges their adaptivity code
(:meth:`_extra_bits`) and adapts them (``report_false_positive``).
"""

from __future__ import annotations

import abc
import math

from repro.common.hashing import hash_to_range
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import AdaptiveFilter, Key

BUCKET_CELLS = 8
MAX_LOAD = 0.85


class BucketedSlotFilter(AdaptiveFilter):
    """Buckets of adaptive slots under one global load cap."""

    supports_deletes = True
    MAX_FINGERPRINT_BITS: int
    _BUCKET_SALT: int
    _FULL_MESSAGE: str

    def __init__(self, n_buckets: int, fingerprint_bits: int, *, seed: int = 0):
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        if not 1 <= fingerprint_bits <= self.MAX_FINGERPRINT_BITS:
            raise ValueError(
                f"fingerprint_bits must be in [1, {self.MAX_FINGERPRINT_BITS}]"
            )
        self.n_buckets = n_buckets
        self.fingerprint_bits = fingerprint_bits
        self.seed = seed
        self._buckets: list[list] = [[] for _ in range(n_buckets)]
        self._n = 0
        self.adaptations = 0

    @abc.abstractmethod
    def _new_slot(self, key: Key):
        """A fresh, un-adapted slot for *key*."""

    @abc.abstractmethod
    def _matches(self, slot, key: Key) -> bool:
        """Whether *slot* answers positive for *key*."""

    @abc.abstractmethod
    def _extra_bits(self, slot) -> int:
        """Bits *slot* spends beyond its base fingerprint."""

    def _bucket_of(self, key: Key) -> int:
        return hash_to_range(key, self.n_buckets, self.seed ^ self._BUCKET_SALT)

    @property
    def capacity(self) -> int:
        return int(self.n_buckets * BUCKET_CELLS * MAX_LOAD)

    def insert(self, key: Key) -> None:
        # Buckets are logically unbounded (the physical QF layout shifts
        # overflow into neighbouring slots); only the global load is capped.
        if self._n >= self.capacity:
            raise FilterFullError(self._FULL_MESSAGE)
        self._buckets[self._bucket_of(key)].append(self._new_slot(key))
        self._n += 1

    def may_contain(self, key: Key) -> bool:
        bucket = self._buckets[self._bucket_of(key)]
        return any(self._matches(slot, key) for slot in bucket)

    def delete(self, key: Key) -> None:
        bucket = self._buckets[self._bucket_of(key)]
        for pos, slot in enumerate(bucket):
            if self._matches(slot, key):
                bucket.pop(pos)
                self._n -= 1
                return
        raise DeletionError("delete of a key that was never inserted")

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        """Base fingerprint slots + each stored slot's adaptivity code."""
        extra = sum(
            self._extra_bits(slot) for bucket in self._buckets for slot in bucket
        )
        return self.n_buckets * BUCKET_CELLS * self.fingerprint_bits + extra

    @classmethod
    def for_capacity(cls, capacity: int, epsilon: float, *, seed: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        n_buckets = max(1, math.ceil(capacity / (MAX_LOAD * BUCKET_CELLS)))
        f = max(1, math.ceil(math.log2(BUCKET_CELLS / epsilon)))
        return cls(n_buckets, f, seed=seed)
