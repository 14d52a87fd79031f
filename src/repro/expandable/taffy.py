"""Taffy cuckoo filter (Apple 2022, "Stretching your data with taffy filters").

Expands by doubling a variable-length-fingerprint table: every existing
entry sacrifices one fingerprint bit to address the larger table, while
entries inserted afterwards get full-length fingerprints.  Queries stay a
single bucket probe and the FPR stays stable (recent full-length entries
always dominate).  Deletes are not supported, and expansion is bounded by a
known universe: once the oldest entry would run out of fingerprint bits,
the filter cannot stretch further (§2.2).
"""

from __future__ import annotations

from repro.core.errors import NotExpandableError
from repro.expandable.varlen import VarLenFilter


class TaffyCuckooFilter(VarLenFilter):
    """Expandable filter with stable FPR and fast queries; no deletes."""

    supports_deletes = False

    def expand(self) -> None:
        shortest = self._table.min_entry_length()
        if shortest == 0:
            raise NotExpandableError(
                "taffy filter at its universe bound: an entry has no "
                "fingerprint bits left to sacrifice"
            )
        voided = self._table.expand()
        assert not voided  # guarded by the min-length check above
