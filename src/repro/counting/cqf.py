"""Counting quotient filter (Pandey et al. 2017, SIGMOD).

A quotient filter that represents multisets: each distinct fingerprint is
stored once, with its multiplicity kept in a variable-length counter that
occupies ⌈log₂(count)/r⌉ extra table slots.  Counts therefore cost O(log c)
bits — the property that makes the CQF "offer good performance on arbitrary
input distributions, including highly skewed distributions" (§2.6).

Layout note (see DESIGN.md): the fingerprint table is the physical
:class:`~repro.filters.quotient.QuotientFilter`; counter escape slots are
accounted logically (``slots_used``, and charged against capacity) rather
than physically interleaved between remainders.  FPR behaviour and space
accounting match the paper's encoding; only the in-memory byte layout
differs.
"""

from __future__ import annotations

import math

from repro.common.varint import cqf_counter_bits
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import CountingFilter, Key
from repro.filters.quotient import DEFAULT_MAX_LOAD, QuotientFilter


class CountingQuotientFilter(CountingFilter):
    """Quotient filter with variable-length counters (multiset support)."""

    def __init__(
        self,
        quotient_bits: int,
        remainder_bits: int,
        *,
        seed: int = 0,
    ):
        self._qf = QuotientFilter(quotient_bits, remainder_bits, seed=seed)
        self._counts: dict[int, int] = {}  # fingerprint -> multiplicity
        self._slots_used = 0
        self._total = 0

    # -- sizing ---------------------------------------------------------------

    @property
    def quotient_bits(self) -> int:
        return self._qf.quotient_bits

    @property
    def remainder_bits(self) -> int:
        return self._qf.remainder_bits

    @property
    def seed(self) -> int:
        return self._qf.seed

    @property
    def capacity(self) -> int:
        return self._qf.capacity

    @property
    def slots_used(self) -> int:
        """Logical slots consumed: one per fingerprint + counter escapes."""
        return self._slots_used

    def _pair_slots(self, count: int) -> int:
        return cqf_counter_bits(count, self.remainder_bits) // self.remainder_bits

    # -- operations ------------------------------------------------------------

    def insert(self, key: Key) -> None:
        self._insert_fp(self._qf._fingerprint(key))

    def insert_exact(self, value: int) -> None:
        """Insert *value* as its own fingerprint (Squeakr/Mantis exact mode:
        the fingerprint is the full packed key, so counts are exact)."""
        if not 0 <= value < (1 << self._qf.fingerprint_bits):
            raise ValueError("value does not fit the fingerprint width")
        self._insert_fp(value)

    def _insert_fp(self, fp: int) -> None:
        current = self._counts.get(fp, 0)
        new_slots = self._pair_slots(current + 1) - (
            self._pair_slots(current) if current else 0
        )
        if self._slots_used + new_slots > self.capacity:
            raise FilterFullError(
                f"counting quotient filter at max load "
                f"({self._slots_used}/{self.capacity} slots)"
            )
        if current == 0:
            self._qf._insert_fingerprint(fp)
        self._counts[fp] = current + 1
        self._slots_used += new_slots
        self._total += 1

    def delete(self, key: Key) -> None:
        fp = self._qf._fingerprint(key)
        current = self._counts.get(fp, 0)
        if current == 0:
            raise DeletionError("delete of a key that was never inserted")
        freed = self._pair_slots(current) - (
            self._pair_slots(current - 1) if current > 1 else 0
        )
        if current == 1:
            self._qf._delete_fingerprint(fp)
            del self._counts[fp]
        else:
            self._counts[fp] = current - 1
        self._slots_used -= freed
        self._total -= 1

    def count(self, key: Key) -> int:
        return self._count_fp(self._qf._fingerprint(key))

    def count_exact(self, value: int) -> int:
        """Count of *value* inserted via :meth:`insert_exact`."""
        if not 0 <= value < (1 << self._qf.fingerprint_bits):
            raise ValueError("value does not fit the fingerprint width")
        return self._count_fp(value)

    def _count_fp(self, fp: int) -> int:
        if not self._qf._contains_fingerprint(fp):
            return 0
        return self._counts.get(fp, 0)

    def may_contain(self, key: Key) -> bool:
        return self._qf.may_contain(key)

    def __len__(self) -> int:
        """Total insertions currently represented (multiset cardinality)."""
        return self._total

    @property
    def n_distinct_fingerprints(self) -> int:
        return len(self._counts)

    @property
    def size_in_bits(self) -> int:
        return self._qf.size_in_bits

    @property
    def used_bits(self) -> int:
        """Bits the stored content actually consumes (occupancy metric)."""
        return sum(
            cqf_counter_bits(c, self.remainder_bits) + 3 for c in self._counts.values()
        )

    def expected_fpr(self) -> float:
        return self._qf.expected_fpr()

    @classmethod
    def for_capacity(
        cls, capacity: int, epsilon: float, *, seed: int = 0
    ) -> "CountingQuotientFilter":
        """Size for *capacity* logical slots (≈ distinct keys for unskewed
        input; skewed multisets use far fewer — that is the point)."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        quotient_bits = max(1, math.ceil(math.log2(capacity / DEFAULT_MAX_LOAD)))
        remainder_bits = max(1, math.ceil(math.log2(1 / epsilon)))
        return cls(quotient_bits, remainder_bits, seed=seed)
