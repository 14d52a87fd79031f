"""Quotient-filter maplet (§2.4; SplinterDB / Chucky lineage).

Each hash-table slot stores a value alongside the key's fingerprint, so a
positive query returns the target value plus the values of any colliding
fingerprints: PRS = 1 + ε, NRS = ε.  Inserts and deletes work exactly as in
the underlying quotient filter, and the maplet can expand the same way.

Multiple values per key are supported (the tutorial notes quotient filters
are "adept at this" thanks to runs): inserting the same key twice stores
two value-carrying entries in the key's run.
"""

from __future__ import annotations

import math
from typing import Any

from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import DynamicMaplet, Key
from repro.filters.quotient import DEFAULT_MAX_LOAD, QuotientFilter


class QuotientFilterMaplet(DynamicMaplet):
    """Dynamic maplet with PRS = 1 + ε and NRS = ε."""

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int,
        *,
        value_bits: int = 32,
        seed: int = 0,
    ):
        self._qf = QuotientFilter(quotient_bits, remainder_bits, seed=seed)
        self.value_bits = value_bits
        # fingerprint -> values stored under it (collisions conflate lists,
        # which is precisely where the "+ε extra values" comes from).
        self._values: dict[int, list[Any]] = {}

    def insert(self, key: Key, value: Any) -> None:
        fp = self._qf._fingerprint(key)
        if len(self._qf) >= self._qf.capacity:
            raise FilterFullError("quotient filter maplet at max load")
        self._qf._insert_fingerprint(fp)
        self._values.setdefault(fp, []).append(value)

    def get(self, key: Key) -> list[Any]:
        fp = self._qf._fingerprint(key)
        if not self._qf._contains_fingerprint(fp):
            return []
        return list(self._values.get(fp, ()))

    def delete(self, key: Key, value: Any) -> None:
        fp = self._qf._fingerprint(key)
        bucket = self._values.get(fp)
        if not bucket or value not in bucket:
            raise DeletionError("delete of a (key, value) that was never inserted")
        self._qf._delete_fingerprint(fp)
        bucket.remove(value)
        if not bucket:
            del self._values[fp]

    def may_contain(self, key: Key) -> bool:
        return self._qf.may_contain(key)

    def __len__(self) -> int:
        return len(self._qf)

    @property
    def size_in_bits(self) -> int:
        """Fingerprint table + one value field per slot."""
        return self._qf.size_in_bits + self._qf.n_slots * self.value_bits

    @property
    def capacity(self) -> int:
        return self._qf.capacity

    def expected_fpr(self) -> float:
        return self._qf.expected_fpr()

    @classmethod
    def for_capacity(
        cls,
        capacity: int,
        epsilon: float,
        *,
        value_bits: int = 32,
        seed: int = 0,
    ) -> "QuotientFilterMaplet":
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        quotient_bits = max(1, math.ceil(math.log2(capacity / DEFAULT_MAX_LOAD)))
        remainder_bits = max(1, math.ceil(math.log2(1 / epsilon)))
        return cls(quotient_bits, remainder_bits, value_bits=value_bits, seed=seed)
