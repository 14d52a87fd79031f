"""Naive quotient-filter expansion: double and sacrifice a fingerprint bit.

§2.2: "it is possible to double their capacity and sacrifice one bit from
each fingerprint ... The problem is that the fingerprints shrink as the
data grows, and this increases the false positive rate.  Eventually, the
fingerprint bits run out, at which point the filter returns a positive for
every query, and it cannot continue expanding."

This class exists to demonstrate exactly that failure mode (experiment F1):
the fingerprint is fixed at p = q₀ + r₀ bits forever; every expansion moves
one bit from the remainder to the quotient, doubling the FPR, until r = 0.
"""

from __future__ import annotations

import math

from repro.core.errors import NotExpandableError
from repro.core.interfaces import ExpandableFilter, Key
from repro.filters.quotient import DEFAULT_MAX_LOAD, QuotientFilter


class NaiveExpandableQuotientFilter(ExpandableFilter):
    """Quotient filter that expands by re-splitting its fixed fingerprint."""

    supports_deletes = True

    def __init__(self, quotient_bits: int, remainder_bits: int, *, seed: int = 0):
        self._qf = QuotientFilter(quotient_bits, remainder_bits, seed=seed)
        self.seed = seed
        self.n_expansions = 0

    # The stored fingerprint never changes width: (q << r) | rem is the same
    # p-bit value before and after a re-split, so expansion is lossless.

    def insert(self, key: Key) -> None:
        self._qf.insert(key)

    def delete(self, key: Key) -> None:
        self._qf.delete(key)

    def may_contain(self, key: Key) -> bool:
        if self._qf.remainder_bits == 0:  # defensive: cannot be constructed
            return True
        return self._qf.may_contain(key)

    def expand(self) -> None:
        """Double the table, stealing one remainder bit for addressing."""
        old = self._qf
        if old.remainder_bits <= 1:
            raise NotExpandableError(
                "fingerprint bits exhausted: a further doubling would leave "
                "zero remainder bits and every query would return positive"
            )
        new = QuotientFilter(
            old.quotient_bits + 1,
            old.remainder_bits - 1,
            seed=old.seed,
            max_load=old.max_load,
        )
        for fp in old.iter_fingerprints():
            # Same p-bit fingerprint, new split point.
            new._insert_fingerprint(fp)
        self._qf = new
        self.n_expansions += 1

    @property
    def capacity(self) -> int:
        return self._qf.capacity

    @property
    def remainder_bits(self) -> int:
        return self._qf.remainder_bits

    def query_cost(self, key: Key) -> int:
        """One structure probe, always (expansion never adds probes)."""
        return 1

    def expected_fpr(self) -> float:
        return self._qf.expected_fpr()

    def __len__(self) -> int:
        return len(self._qf)

    @property
    def size_in_bits(self) -> int:
        return self._qf.size_in_bits

    @classmethod
    def for_capacity(
        cls, capacity: int, epsilon: float, *, seed: int = 0
    ) -> "NaiveExpandableQuotientFilter":
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        quotient_bits = max(1, math.ceil(math.log2(capacity / DEFAULT_MAX_LOAD)))
        remainder_bits = max(1, math.ceil(math.log2(1 / epsilon)))
        return cls(quotient_bits, remainder_bits, seed=seed)
