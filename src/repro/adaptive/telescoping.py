"""Telescoping adaptive filter (Lee, McCauley, Singh & Stein 2021, ESA).

Like the adaptive cuckoo filter, the telescoping filter remaps a slot's
fingerprint when a false positive is discovered — but instead of a
fixed-width selector it stores a *variable-length* adaptivity code per
slot, so un-adapted slots (the overwhelming majority) pay ~0 extra bits and
a slot that has adapted k times pays O(log k) bits.  This is the trick that
lets it adapt indefinitely within a near-optimal space budget.

``size_in_bits`` therefore charges the Elias-gamma cost of each slot's
selector on top of the fingerprints — the accounting the paper's space
claim rests on.
"""

from __future__ import annotations

from repro.adaptive.bucketed import BucketedSlotFilter
from repro.common.hashing import fingerprint
from repro.common.varint import elias_gamma_bits
from repro.core.interfaces import Key


class _Slot:
    __slots__ = ("fp", "selector", "key")

    def __init__(self, fp: int, selector: int, key: Key):
        self.fp = fp
        self.selector = selector
        self.key = key  # remote representation


class TelescopingFilter(BucketedSlotFilter):
    """Single-table filter with variable-length per-slot hash selectors."""

    MAX_FINGERPRINT_BITS = 56
    _BUCKET_SALT = 0x7E1E
    _FULL_MESSAGE = "telescoping filter at max load"

    def _fp(self, key: Key, selector: int) -> int:
        return fingerprint(
            key, self.fingerprint_bits, self.seed ^ 0x5C0 ^ (selector * 0x9E37)
        )

    def _new_slot(self, key: Key) -> _Slot:
        return _Slot(self._fp(key, 0), 0, key)

    def _matches(self, slot: _Slot, key: Key) -> bool:
        return slot.fp == self._fp(key, slot.selector)

    def _extra_bits(self, slot: _Slot) -> int:
        """The gamma-coded selector (keys are remote)."""
        return elias_gamma_bits(slot.selector + 1)

    def report_false_positive(self, key: Key) -> None:
        """Telescope every matching slot to its next hash selector."""
        bucket = self._buckets[self._bucket_of(key)]
        for slot in bucket:
            if self._matches(slot, key):
                slot.selector += 1  # unbounded: the code is variable-length
                slot.fp = self._fp(slot.key, slot.selector)
                self.adaptations += 1
