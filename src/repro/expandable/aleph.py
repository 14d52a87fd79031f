"""Aleph filter (Dayan, Bercea & Pagh 2024, "To Infinity in Constant Time").

Improves InfiniFilter by keeping void entries *inside* the main table: when
an expansion voids an entry, the void is duplicated into both child buckets
(it has no bit left to choose one), so a query remains a single bucket
probe — the constant-time guarantee the tutorial highlights.  Because
capacity doubles with every expansion while voids only double past the
fingerprint budget, the void *fraction* stays bounded and so does the FPR.

Deletes prefer the longest (most specific) matching entry, removing a void
only as a last resort — mirroring Aleph's rejuvenation-friendly ordering.
"""

from __future__ import annotations

from repro.core.errors import NotExpandableError
from repro.core.interfaces import Key
from repro.expandable.varlen import Entry, VarLenFilter


class AlephFilter(VarLenFilter):
    """Expandable filter with deletes, unbounded growth and O(1) queries."""

    supports_deletes = True

    def delete(self, key: Key) -> None:
        self._table.delete_hash(self._table._hash(key))

    def expand(self) -> None:
        voided = self._table.expand()
        # A void entry matches every key of its old bucket; both children
        # inherit it so no false negative can appear.
        for old_bucket, _entry in voided:
            self._table.place_entry((old_bucket << 1) | 0, Entry(0, 0))
            self._table.place_entry((old_bucket << 1) | 1, Entry(0, 0))
        if voided and len(self._table) >= self.capacity:
            # Voids are doubling as fast as capacity: the fingerprint budget
            # is far too small for this growth and expanding cannot help.
            raise NotExpandableError(
                "void entries dominate the table; configure more fingerprint "
                "bits for this growth range"
            )

    @property
    def n_void_entries(self) -> int:
        return self._table.entry_lengths().get(0, 0)
