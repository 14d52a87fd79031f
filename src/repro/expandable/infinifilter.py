"""InfiniFilter (Dayan, Bercea, Reviriego & Pagh 2023, SIGMOD).

Extends the variable-length-fingerprint scheme with deletes and *unbounded*
expansion: entries whose fingerprints are exhausted ("void" entries) are
demoted into a chain of frozen per-generation summaries instead of blocking
expansion.  The cost — and the reason the tutorial notes that InfiniFilter
"queries are not constant time" — is that a query must consult the main
table *and* every legacy generation that holds void entries, so query cost
grows with the number of expansions past the fingerprint budget
(O(log(n/n₀)) worst case; experiment F2 measures this).
"""

from __future__ import annotations

from repro.core.errors import DeletionError
from repro.core.interfaces import Key
from repro.expandable.varlen import VarLenFilter


class _LegacyGeneration:
    """Frozen record of the bucket addresses that held void entries when
    the table had *address_bits* address bits."""

    __slots__ = ("address_bits", "addresses")

    def __init__(self, address_bits: int):
        self.address_bits = address_bits
        self.addresses: dict[int, int] = {}  # address -> void entry count

    def add(self, address: int) -> None:
        self.addresses[address] = self.addresses.get(address, 0) + 1

    def matches(self, h: int) -> bool:
        return (h >> (64 - self.address_bits)) in self.addresses

    def remove(self, h: int) -> bool:
        address = h >> (64 - self.address_bits)
        count = self.addresses.get(address, 0)
        if count == 0:
            return False
        if count == 1:
            del self.addresses[address]
        else:
            self.addresses[address] = count - 1
        return True

    @property
    def n_entries(self) -> int:
        return sum(self.addresses.values())

    @property
    def size_in_bits(self) -> int:
        return self.n_entries * max(1, self.address_bits)


class InfiniFilter(VarLenFilter):
    """Expandable filter with deletes and unbounded growth; queries probe
    the main table plus every non-empty legacy generation."""

    supports_deletes = True

    def __init__(self, address_bits: int, fingerprint_bits: int, *, seed: int = 0):
        super().__init__(address_bits, fingerprint_bits, seed=seed)
        self._legacy: list[_LegacyGeneration] = []

    def may_contain(self, key: Key) -> bool:
        h = self._table._hash(key)
        if self._table.matches_hash(h):
            return True
        return any(generation.matches(h) for generation in self._legacy)

    def delete(self, key: Key) -> None:
        h = self._table._hash(key)
        try:
            self._table.delete_hash(h)
            return
        except DeletionError:
            pass
        for generation in self._legacy:
            if generation.remove(h):
                return
        raise DeletionError("delete of a key that was never inserted")

    def expand(self) -> None:
        old_bits = self._table.address_bits
        voided = self._table.expand()
        if voided:
            generation = _LegacyGeneration(old_bits)
            for bucket_index, _entry in voided:
                generation.add(bucket_index)
            self._legacy.append(generation)

    def query_cost(self, key: Key) -> int:
        """Structures probed: main table + all legacy generations."""
        return 1 + len(self._legacy)

    @property
    def n_void_entries(self) -> int:
        return sum(generation.n_entries for generation in self._legacy)

    def expected_fpr(self) -> float:
        legacy = sum(
            generation.n_entries / (1 << generation.address_bits)
            for generation in self._legacy
        )
        return super().expected_fpr() + legacy

    def __len__(self) -> int:
        return len(self._table) + self.n_void_entries

    @property
    def size_in_bits(self) -> int:
        return self._table.size_in_bits + sum(
            generation.size_in_bits for generation in self._legacy
        )
