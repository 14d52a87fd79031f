"""Adaptive quotient filter (Wen et al. 2025; broom filter of Bender et al.).

Adapts by *extending fingerprints*: when a negative key is discovered to
collide with a stored fingerprint, the stored entry's fingerprint grows by
enough extra hash bits (fetched via the remote representation) to separate
the two.  Extensions only ever lengthen fingerprints, which is what makes
the filter **monotonically adaptive**: the FPR guarantee holds for every
query independent of history, even against an adversary — and, unlike the
selector-swapping designs, adapting to one key can never re-expose a
previously fixed key.
"""

from __future__ import annotations

from repro.adaptive.bucketed import BucketedSlotFilter
from repro.common.hashing import hash64
from repro.common.varint import elias_gamma_bits
from repro.core.interfaces import Key

_MAX_EXTENSION = 48


class _Slot:
    __slots__ = ("length", "value", "key")

    def __init__(self, length: int, value: int, key: Key):
        self.length = length
        self.value = value
        self.key = key  # remote representation


class AdaptiveQuotientFilter(BucketedSlotFilter):
    """Fingerprint-extending, monotonically adaptive filter."""

    MAX_FINGERPRINT_BITS = 40
    _BUCKET_SALT = 0xA0F
    _FULL_MESSAGE = "adaptive quotient filter at max load"

    @property
    def base_bits(self) -> int:
        """Fingerprint length every slot starts with."""
        return self.fingerprint_bits

    def _hash_bits(self, key: Key, length: int) -> int:
        """The first *length* fingerprint bits of *key* (from a 64-bit pool)."""
        if length == 0:
            return 0
        h = hash64(key, self.seed ^ 0xBEEF)
        return h >> (64 - length)

    def _new_slot(self, key: Key) -> _Slot:
        return _Slot(self.base_bits, self._hash_bits(key, self.base_bits), key)

    def _matches(self, slot: _Slot, key: Key) -> bool:
        return slot.value == self._hash_bits(key, slot.length)

    def _extra_bits(self, slot: _Slot) -> int:
        """Extension bits plus their gamma-coded length."""
        return (slot.length - self.base_bits) + elias_gamma_bits(
            slot.length - self.base_bits + 1
        )

    def report_false_positive(self, key: Key) -> None:
        """Extend every colliding fingerprint until *key* stops matching.

        The extension bits come from the resident's own hash (recomputed
        from the remote representation), so residents remain represented
        exactly; only the collision with *key* is severed.
        """
        bucket = self._buckets[self._bucket_of(key)]
        for slot in bucket:
            adapted = False
            while self._matches(slot, key) and slot.length < _MAX_EXTENSION:
                slot.length += 1
                slot.value = self._hash_bits(slot.key, slot.length)
                adapted = True
            if adapted:
                self.adaptations += 1

    @property
    def adaptivity_bits(self) -> int:
        """Total extension bits currently carried (the broom-filter budget)."""
        return sum(
            slot.length - self.base_bits
            for bucket in self._buckets
            for slot in bucket
        )
