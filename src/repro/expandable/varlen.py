"""Shared substrate for variable-length-fingerprint filters (§2.2).

Taffy cuckoo, InfiniFilter and Aleph all rest on the same trick (traced by
the tutorial to Pagh–Segev–Wieder 2013): treat each key's hash as an
infinite bit string, use a prefix of it as the bucket address, and store
the *next* ℓ bits as the fingerprint.  Expanding the table claims one more
address bit — which is exactly the top bit of every stored fingerprint, so
entries can be rehomed without the original keys, each losing one
fingerprint bit.  Entries inserted after an expansion get full-length
fingerprints again, so recent entries (always the majority, since capacity
doubles) keep the FPR stable.

An entry whose fingerprint is exhausted is *void*: it matches every query
in its bucket.  What a design does with voids is what separates the three
filters: :meth:`VarLenFingerprintTable.expand` returns them, and each
:class:`VarLenFilter` subclass decides in its own ``expand``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.hashing import hash64
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import ExpandableFilter, Key

BUCKET_CELLS = 8
MAX_LOAD = 0.85


@dataclass
class Entry:
    """A stored fingerprint: *length* leading hash bits in *value*."""

    length: int
    value: int


class VarLenFingerprintTable:
    """Bucketed table of variable-length fingerprints with doubling."""

    def __init__(
        self,
        address_bits: int,
        fingerprint_bits: int,
        *,
        seed: int = 0,
    ):
        if not 1 <= address_bits <= 40:
            raise ValueError("address_bits must be in [1, 40]")
        if not 1 <= fingerprint_bits <= 20:
            raise ValueError("fingerprint_bits must be in [1, 20]")
        self.address_bits = address_bits
        self.full_length = fingerprint_bits
        self.seed = seed
        self.n_expansions = 0
        self._buckets: list[list[Entry]] = [[] for _ in range(1 << address_bits)]
        self._n = 0

    # -- hashing ---------------------------------------------------------------

    def _hash(self, key: Key) -> int:
        return hash64(key, self.seed)

    def _address(self, h: int) -> int:
        return h >> (64 - self.address_bits)

    def _fingerprint_bits_of(self, h: int, length: int) -> int:
        """The *length* hash bits that follow the current address prefix."""
        if length == 0:
            return 0
        return (h >> (64 - self.address_bits - length)) & ((1 << length) - 1)

    # -- operations -------------------------------------------------------------

    @property
    def n_buckets(self) -> int:
        return 1 << self.address_bits

    @property
    def capacity(self) -> int:
        return int(self.n_buckets * BUCKET_CELLS * MAX_LOAD)

    def insert_hash(self, h: int) -> None:
        if self._n >= self.capacity:
            raise FilterFullError("variable-length fingerprint table at max load")
        bucket = self._buckets[self._address(h)]
        if len(bucket) >= BUCKET_CELLS:
            raise FilterFullError("bucket overflow in fingerprint table")
        bucket.append(Entry(self.full_length, self._fingerprint_bits_of(h, self.full_length)))
        self._n += 1

    def matches_hash(self, h: int) -> bool:
        bucket = self._buckets[self._address(h)]
        for entry in bucket:
            if entry.value == self._fingerprint_bits_of(h, entry.length):
                return True
        return False

    def delete_hash(self, h: int) -> None:
        """Remove one matching entry, preferring the longest (most specific)
        match so deletes disturb void entries last."""
        bucket = self._buckets[self._address(h)]
        best = None
        for i, entry in enumerate(bucket):
            if entry.value == self._fingerprint_bits_of(h, entry.length):
                if best is None or entry.length > bucket[best].length:
                    best = i
        if best is None:
            raise DeletionError("delete of a key that was never inserted")
        bucket.pop(best)
        self._n -= 1

    def expand(self) -> list[tuple[int, Entry]]:
        """Double the bucket array, shortening every fingerprint by one bit.

        Entries that *would* go void (length already 0) are removed and
        returned as ``(old_bucket_index, entry)`` for the caller to handle;
        all others are rehomed using their sacrificed top bit.
        """
        old_buckets = self._buckets
        self.address_bits += 1
        self.n_expansions += 1
        self._buckets = [[] for _ in range(1 << self.address_bits)]
        voided: list[tuple[int, Entry]] = []
        for b, bucket in enumerate(old_buckets):
            for entry in bucket:
                if entry.length == 0:
                    voided.append((b, entry))
                    self._n -= 1
                    continue
                top = entry.value >> (entry.length - 1)
                child = (b << 1) | top
                self._buckets[child].append(
                    Entry(entry.length - 1, entry.value & ((1 << (entry.length - 1)) - 1))
                )
        return voided

    def place_entry(self, bucket_index: int, entry: Entry) -> None:
        """Put an explicit entry into a bucket (void duplication etc.)."""
        self._buckets[bucket_index].append(entry)
        self._n += 1

    def min_entry_length(self) -> int | None:
        """Shortest fingerprint currently stored (None when empty)."""
        lengths = [e.length for bucket in self._buckets for e in bucket]
        return min(lengths) if lengths else None

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        """Fixed slots, each wide enough for a full fingerprint plus the
        unary self-delimiter that makes variable lengths decodable."""
        return self.n_buckets * BUCKET_CELLS * (self.full_length + 2)

    def entry_lengths(self) -> dict[int, int]:
        """Histogram {fingerprint length: count} (diagnostics/tests)."""
        hist: dict[int, int] = {}
        for bucket in self._buckets:
            for entry in bucket:
                hist[entry.length] = hist.get(entry.length, 0) + 1
        return hist


class VarLenFilter(ExpandableFilter):
    """An expandable filter over one :class:`VarLenFingerprintTable`.

    A query probes one bucket of the table; subclasses add what their
    ``expand`` does with the entries it voids.
    """

    def __init__(self, address_bits: int, fingerprint_bits: int, *, seed: int = 0):
        self._table = VarLenFingerprintTable(address_bits, fingerprint_bits, seed=seed)
        self.seed = seed

    def insert(self, key: Key) -> None:
        self._table.insert_hash(self._table._hash(key))

    def may_contain(self, key: Key) -> bool:
        return self._table.matches_hash(self._table._hash(key))

    def query_cost(self, key: Key) -> int:
        """Structures probed per query: always exactly one (the O(1) claim)."""
        return 1

    @property
    def capacity(self) -> int:
        return self._table.capacity

    @property
    def n_expansions(self) -> int:
        return self._table.n_expansions

    def expected_fpr(self) -> float:
        """Σ over stored entries of 2^-length, normalised per bucket load."""
        hist = self._table.entry_lengths()
        return sum(c * 2.0**-length for length, c in hist.items()) / self._table.n_buckets

    def __len__(self) -> int:
        return len(self._table)

    @property
    def size_in_bits(self) -> int:
        return self._table.size_in_bits

    @classmethod
    def for_capacity(cls, capacity: int, epsilon: float, *, seed: int = 0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        address_bits = max(
            1, math.ceil(math.log2(max(2.0, capacity / (BUCKET_CELLS * MAX_LOAD))))
        )
        fingerprint_bits = min(20, max(1, math.ceil(math.log2(BUCKET_CELLS / epsilon))))
        return cls(address_bits, fingerprint_bits, seed=seed)
