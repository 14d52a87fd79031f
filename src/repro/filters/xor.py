"""XOR and XOR+ filters (Graf & Lemire 2020).

Static, algebraic filters: each key hashes to three table positions, and
construction (hypergraph peeling) finds an assignment of f-bit table values
such that for every key the XOR of its three cells equals its fingerprint.

Space: 1.23·f bits/key for the plain XOR filter (the tutorial quotes the
amortised 1.22 figure); XOR+ compresses the third segment — which peeling
leaves largely empty — with a rank bit vector, landing near
1.08·log₂(1/ε) + 0.5 bits/key.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.common.bitvector import BitVector, PackedArray
from repro.common.hashing import (
    as_key_array,
    derived_seeds,
    fingerprint,
    fingerprint_many,
    hash_to_range,
    hash_to_range_many,
)
from repro.common.rankselect import RankSelect
from repro.core.errors import ImmutableFilterError
from repro.core.interfaces import Key, KeyBatch, StaticFilter

_SIZE_FACTOR = 1.23
_MAX_CONSTRUCTION_ATTEMPTS = 64


class _PeelResult:
    """Order in which keys were peeled, with the slot each key owns."""

    __slots__ = ("order",)

    def __init__(self, order: list[tuple[int, int]]):
        self.order = order  # (key_index, owned_slot), in peel order


def _peel(
    all_slots: list[tuple[int, int, int]],
    n_slots: int,
    prefer_from: int = 0,
) -> _PeelResult | None:
    """Peel the 3-uniform hypergraph; None if a 2-core remains.

    Slots at index < *prefer_from* are peeled first when available (a peeled
    slot becomes its key's *owned* slot and is written a nonzero value).
    XOR+ passes the third-segment boundary here so owned slots concentrate
    in segments 0–1, leaving segment 2 mostly zero and compressible.
    """
    n_keys = len(all_slots)
    count = [0] * n_slots
    xor_keys = [0] * n_slots  # XOR of key indexes touching the slot
    for key_index, slots in enumerate(all_slots):
        for slot in slots:
            count[slot] += 1
            xor_keys[slot] ^= key_index
    low = [s for s in range(prefer_from) if count[s] == 1]
    high = [s for s in range(prefer_from, n_slots) if count[s] == 1]
    order: list[tuple[int, int]] = []
    while low or high:
        slot = low.pop() if low else high.pop()
        if count[slot] != 1:
            continue
        key_index = xor_keys[slot]
        order.append((key_index, slot))
        for other in all_slots[key_index]:
            count[other] -= 1
            xor_keys[other] ^= key_index
            if count[other] == 1:
                (low if other < prefer_from else high).append(other)
    if len(order) != n_keys:
        return None
    return _PeelResult(order)


class XorFilter(StaticFilter):
    """Plain XOR filter over a fixed key set."""

    def __init__(
        self,
        keys: Iterable[Key],
        fingerprint_bits: int,
        *,
        seed: int = 0,
        _prefer_first_segments: bool = False,
    ):
        key_list = list(keys)
        if not 1 <= fingerprint_bits <= 56:
            raise ValueError("fingerprint_bits must be in [1, 56]")
        self.fingerprint_bits = fingerprint_bits
        self._n = len(key_list)
        n_slots = max(6, int(math.ceil(_SIZE_FACTOR * max(1, self._n))) + 3)
        self._segment = n_slots // 3
        self._n_slots = self._segment * 3
        prefer_from = 2 * self._segment if _prefer_first_segments else 0

        # Build fast path: all three slot hashes (and later the
        # fingerprints) for the whole key set come from the batch kernels,
        # leaving only peeling and back-assignment in Python.
        key_arr = as_key_array(key_list)
        for attempt in range(_MAX_CONSTRUCTION_ATTEMPTS):
            self.seed = derived_seeds(seed, attempt + 1)[-1]
            all_slots = self._slots_many(key_arr)
            peel = _peel(all_slots, self._n_slots, prefer_from)
            if peel is not None:
                break
        else:
            raise RuntimeError("XOR filter construction failed (duplicate keys?)")

        self._table = PackedArray(self._n_slots, fingerprint_bits)
        fingerprints = fingerprint_many(
            key_arr, fingerprint_bits, self.seed ^ 0xF0
        ).tolist() if self._n else []
        # Assign in reverse peel order: each key's owned slot is free to take
        # whatever value makes the three-way XOR equal its fingerprint.
        for key_index, owned in reversed(peel.order):
            value = fingerprints[key_index]
            for slot in all_slots[key_index]:
                if slot != owned:
                    value ^= self._table.get(slot)
            self._table.set(owned, value)

    # -- hashing ------------------------------------------------------------

    def _fingerprint(self, key: Key) -> int:
        return fingerprint(key, self.fingerprint_bits, self.seed ^ 0xF0)

    def _slots(self, key: Key) -> tuple[int, int, int]:
        s = self._segment
        return (
            hash_to_range(key, s, self.seed ^ 1),
            s + hash_to_range(key, s, self.seed ^ 2),
            2 * s + hash_to_range(key, s, self.seed ^ 3),
        )

    def _slots_many(self, keys: KeyBatch) -> list[tuple[int, int, int]]:
        """Batched :meth:`_slots` for the whole key set."""
        arr = as_key_array(keys)
        s = self._segment
        h0 = hash_to_range_many(arr, s, self.seed ^ 1)
        h1 = s + hash_to_range_many(arr, s, self.seed ^ 2)
        h2 = 2 * s + hash_to_range_many(arr, s, self.seed ^ 3)
        return list(zip(h0.tolist(), h1.tolist(), h2.tolist()))

    def _probe_arrays(self, keys: KeyBatch):
        """(h0, h1, h2, fingerprint) arrays for a probe batch."""
        arr = as_key_array(keys)
        s = self._segment
        h0 = hash_to_range_many(arr, s, self.seed ^ 1)
        h1 = s + hash_to_range_many(arr, s, self.seed ^ 2)
        h2 = 2 * s + hash_to_range_many(arr, s, self.seed ^ 3)
        fp = fingerprint_many(arr, self.fingerprint_bits, self.seed ^ 0xF0)
        return h0, h1, h2, fp

    # -- API ------------------------------------------------------------------

    def may_contain(self, key: Key) -> bool:
        h0, h1, h2 = self._slots(key)
        value = (
            self._table.get(h0) ^ self._table.get(h1) ^ self._table.get(h2)
        )
        return value == self._fingerprint(key)

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Three table gathers + one compare for the whole batch."""
        if not len(keys):
            return np.zeros(0, dtype=bool)
        h0, h1, h2, fp = self._probe_arrays(keys)
        value = (
            self._table.get_many(h0)
            ^ self._table.get_many(h1)
            ^ self._table.get_many(h2)
        )
        return value == fp

    def insert(self, key: Key) -> None:
        raise ImmutableFilterError("XOR filters are static (build-once)")

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return self._table.size_in_bits

    def expected_fpr(self) -> float:
        return 2.0 ** (-self.fingerprint_bits)

    @classmethod
    def build(cls, keys: Iterable[Key], epsilon: float, *, seed: int = 0) -> "XorFilter":
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        bits = max(1, math.ceil(math.log2(1 / epsilon)))
        return cls(keys, bits, seed=seed)


class XorPlusFilter(StaticFilter):
    """XOR+ filter: XOR filter with a compressed third segment.

    Peeling tends to drain the third segment (slots are peeled from it
    first), so most of its cells are zero.  XOR+ stores a presence bit
    vector plus only the nonzero cells, recovered via rank — trading a
    rank lookup per query for ~0.15·f bits/key.
    """

    def __init__(self, keys: Iterable[Key], fingerprint_bits: int, *, seed: int = 0):
        self._inner = XorFilter(
            keys, fingerprint_bits, seed=seed, _prefer_first_segments=True
        )
        segment = self._inner._segment
        third_start = 2 * segment
        nonzero = BitVector(segment)
        values = []
        for i in range(segment):
            cell = self._inner._table.get(third_start + i)
            if cell:
                nonzero.set(i)
                values.append(cell)
        self._nonzero = nonzero
        self._rank = RankSelect(nonzero)
        self._packed_third = PackedArray(max(1, len(values)), fingerprint_bits)
        for i, value in enumerate(values):
            self._packed_third.set(i, value)
        self._n_nonzero = len(values)
        self.fingerprint_bits = fingerprint_bits

    def _third_cell(self, offset: int) -> int:
        if not self._nonzero.get(offset):
            return 0
        return self._packed_third.get(self._rank.rank(offset))

    def _third_cells_many(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_third_cell`: presence test, rank, gather."""
        present = self._nonzero.test_many(offsets)
        ranks = self._rank.rank_many(offsets)
        # Ranks are only meaningful where the presence bit is set; clamp the
        # rest so the gather stays in bounds, then mask them to zero.
        safe = np.minimum(ranks, self._packed_third.n_fields - 1)
        values = self._packed_third.get_many(safe)
        return np.where(present, values, np.uint64(0))

    def may_contain(self, key: Key) -> bool:
        inner = self._inner
        h0, h1, h2 = inner._slots(key)
        value = (
            inner._table.get(h0)
            ^ inner._table.get(h1)
            ^ self._third_cell(h2 - 2 * inner._segment)
        )
        return value == inner._fingerprint(key)

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Two table gathers + one rank-directed gather per batch."""
        if not len(keys):
            return np.zeros(0, dtype=bool)
        inner = self._inner
        h0, h1, h2, fp = inner._probe_arrays(keys)
        offsets = (h2 - np.uint64(2 * inner._segment)).astype(np.int64)
        value = (
            inner._table.get_many(h0)
            ^ inner._table.get_many(h1)
            ^ self._third_cells_many(offsets)
        )
        return value == fp

    def insert(self, key: Key) -> None:
        raise ImmutableFilterError("XOR+ filters are static (build-once)")

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def size_in_bits(self) -> int:
        """Two plain segments + presence bits + packed nonzero cells."""
        two_segments = 2 * self._inner._segment * self.fingerprint_bits
        return (
            two_segments
            + self._nonzero.n_bits
            + self._n_nonzero * self.fingerprint_bits
        )

    def expected_fpr(self) -> float:
        return 2.0 ** (-self.fingerprint_bits)

    @classmethod
    def build(
        cls, keys: Iterable[Key], epsilon: float, *, seed: int = 0
    ) -> "XorPlusFilter":
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        bits = max(1, math.ceil(math.log2(1 / epsilon)))
        return cls(keys, bits, seed=seed)
