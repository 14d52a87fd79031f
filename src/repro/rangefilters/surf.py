"""SuRF — the Succinct Range Filter (Zhang et al. 2018, SIGMOD).

Stores the *shortest unique prefix* of every key in a trie: each stored
prefix covers the whole interval of keys sharing it, so a range query
reduces to "does any stored prefix-interval intersect the query interval?".
SuRF's variants append suffix bits to each truncated key:

* ``suffix_bits=0`` — SuRF-Base: smallest, highest FPR.
* ``real_suffix_bits=k`` — SuRF-Real: k further *key* bits, narrowing each
  covered interval (helps point and range queries).
* ``hash_suffix_bits=k`` — SuRF-Hash: k hashed bits checked only on point
  queries (helps point queries, not ranges).

The trie here is materialised as sorted coverage intervals (equivalent to
the FST's range-lookup semantics); ``size_in_bits`` charges the LOUDS-style
succinct cost: ~3 bits per trie node plus the suffix store.  SuRF's two
§2.5 weaknesses fall straight out of this construction: adversarial keys
with long shared prefixes inflate the node count (space), and queries that
land just outside a key but inside its covered interval false-positive
(the correlated-workload failure, experiment F5).
"""

from __future__ import annotations

import numpy as np

from repro.common.hashing import hash64
from repro.core.interfaces import RangeFilter

_LOUDS_BITS_PER_NODE = 3  # LOUDS-DS: ~2 topology bits + has-child/label amortised


class SuRF(RangeFilter):
    """Succinct Range Filter over fixed-width integer keys."""

    def __init__(
        self,
        keys: list[int],
        *,
        key_bits: int = 48,
        real_suffix_bits: int = 0,
        hash_suffix_bits: int = 0,
        seed: int = 0,
    ):
        if not 1 <= key_bits <= 62:
            raise ValueError("key_bits must be in [1, 62]")
        if real_suffix_bits < 0 or hash_suffix_bits < 0:
            raise ValueError("suffix widths must be non-negative")
        self.key_bits = key_bits
        self.real_suffix_bits = real_suffix_bits
        self.hash_suffix_bits = hash_suffix_bits
        self.seed = seed
        unique = sorted(set(keys))
        if any(k < 0 or k >= (1 << key_bits) for k in unique):
            raise ValueError("key out of universe range")
        self._n = len(unique)

        prefix_lens = self._unique_prefix_lengths(unique)
        self._trie_nodes = self._count_trie_nodes(unique, prefix_lens)

        starts, ends = [], []
        hashes = []
        for key, plen in zip(unique, prefix_lens):
            stored_len = min(key_bits, plen + real_suffix_bits)
            shift = key_bits - stored_len
            prefix = key >> shift
            starts.append(prefix << shift)
            ends.append(((prefix + 1) << shift) - 1)
            if hash_suffix_bits:
                hashes.append(hash64(key, seed ^ 0x5F) & ((1 << hash_suffix_bits) - 1))
        self._starts = np.asarray(starts, dtype=np.int64)
        self._ends = np.asarray(ends, dtype=np.int64)
        self._hashes = np.asarray(hashes, dtype=np.int64) if hashes else None

    # -- construction helpers ---------------------------------------------------

    def _unique_prefix_lengths(self, sorted_keys: list[int]) -> list[int]:
        """Shortest unique prefix length (in bits) of each key."""
        W = self.key_bits

        def lcp(a: int, b: int) -> int:
            diff = a ^ b
            return W if diff == 0 else W - diff.bit_length()

        n = len(sorted_keys)
        lens = []
        for i, key in enumerate(sorted_keys):
            shared = 0
            if i > 0:
                shared = max(shared, lcp(key, sorted_keys[i - 1]))
            if i + 1 < n:
                shared = max(shared, lcp(key, sorted_keys[i + 1]))
            lens.append(min(W, shared + 1))
        return lens

    def _count_trie_nodes(self, sorted_keys: list[int], prefix_lens: list[int]) -> int:
        """Trie nodes = new edges each key contributes beyond the LCP with
        its predecessor (standard trie-size identity)."""
        W = self.key_bits
        nodes = 0
        for i, (key, plen) in enumerate(zip(sorted_keys, prefix_lens)):
            if i == 0:
                nodes += plen
                continue
            diff = key ^ sorted_keys[i - 1]
            shared = W if diff == 0 else W - diff.bit_length()
            nodes += max(0, plen - shared)
        return nodes

    # -- queries --------------------------------------------------------------------

    def may_intersect(self, lo: int, hi: int) -> bool:
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        if self._n == 0:
            return False
        # First stored interval whose end is >= lo; intersects iff start <= hi.
        i = int(np.searchsorted(self._ends, lo, side="left"))
        return i < self._n and int(self._starts[i]) <= hi

    def may_contain(self, key: int) -> bool:
        if self._n == 0:
            return False
        i = int(np.searchsorted(self._ends, key, side="left"))
        if i >= self._n or int(self._starts[i]) > key:
            return False
        if self._hashes is None:
            return True
        # SuRF-Hash: point queries also check the hashed suffix.
        expected = hash64(key, self.seed ^ 0x5F) & ((1 << self.hash_suffix_bits) - 1)
        return int(self._hashes[i]) == expected

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        suffix = self._n * (self.real_suffix_bits + self.hash_suffix_bits)
        return self._trie_nodes * _LOUDS_BITS_PER_NODE + suffix
