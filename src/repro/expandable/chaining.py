"""Chained filters: the straightforward answers to filter expansion (§2.2).

All three designs add whole filters as the data grows, so nothing is ever
rehashed — but *every* filter in the chain must be probed on a query, which
is the cost the tutorial calls out ("this approach increases query costs as
all filters along the chain potentially need to be searched").

* :class:`ChainedFilter` — fixed-size Bloom links (Guo et al.).
* :class:`ScalableBloomFilter` — geometric links, tightening ε (Almeida).
* :class:`DynamicCuckooFilter` — fixed-size cuckoo links (Chen et al.,
  ICNP 2017): the chain variant that also supports deletes.
"""

from __future__ import annotations

import abc

from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import ExpandableFilter, Key
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter


class _FilterChain(ExpandableFilter):
    """Links made by :meth:`_new_link`, every one probed on a query."""

    supports_deletes = False

    def __init__(self, epsilon: float, seed: int):
        self.epsilon = epsilon
        self.seed = seed
        self._links: list = [self._new_link(0)]
        self._n = 0

    @abc.abstractmethod
    def _new_link(self, index: int):
        """The chain's link number *index*."""

    def insert(self, key: Key) -> None:
        tail = self._links[-1]
        if len(tail) >= tail.capacity:
            self.expand()
            tail = self._links[-1]
        tail.insert(key)
        self._n += 1

    def expand(self) -> None:
        self._links.append(self._new_link(len(self._links)))

    def may_contain(self, key: Key) -> bool:
        return any(link.may_contain(key) for link in self._links)

    def query_cost(self, key: Key) -> int:
        """Filters probed for *key* (worst case on a negative: all links)."""
        cost = 0
        for link in self._links:
            cost += 1
            if link.may_contain(key):
                break
        return cost

    @property
    def n_links(self) -> int:
        return len(self._links)

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return sum(link.size_in_bits for link in self._links)


class ChainedFilter(_FilterChain):
    """A linked list of fixed-size Bloom filters (Guo et al., Chen et al.).

    Each link is sized for *link_capacity* keys at the *same* ε, so the
    overall false-positive rate grows linearly with the number of links:
    FPR ≈ 1 − (1 − ε)^links.
    """

    def __init__(self, link_capacity: int, epsilon: float, *, seed: int = 0):
        if link_capacity <= 0:
            raise ValueError("link_capacity must be positive")
        self.link_capacity = link_capacity
        super().__init__(epsilon, seed)

    def _new_link(self, index: int) -> BloomFilter:
        return BloomFilter(self.link_capacity, self.epsilon, seed=self.seed + index)

    @property
    def capacity(self) -> int:
        return self.link_capacity * len(self._links)


class ScalableBloomFilter(_FilterChain):
    """Scalable Bloom filter (Almeida et al. 2007).

    Links grow geometrically (×2) and their FPRs tighten geometrically
    (×r, r = 0.5), so the total FPR converges to ε/(1−r) = 2ε no matter how
    far the filter grows — at the price of a Θ(log n) chain to probe.
    """

    GROWTH = 2
    TIGHTENING = 0.5

    def __init__(self, initial_capacity: int, epsilon: float, *, seed: int = 0):
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.initial_capacity = initial_capacity
        super().__init__(epsilon, seed)

    def _new_link(self, index: int) -> BloomFilter:
        capacity = self.initial_capacity * self.GROWTH**index
        link_epsilon = self.epsilon * (1 - self.TIGHTENING) * self.TIGHTENING**index
        return BloomFilter(capacity, link_epsilon, seed=self.seed + index)

    @property
    def capacity(self) -> int:
        return sum(link.capacity for link in self._links)


class DynamicCuckooFilter(_FilterChain):
    """The Dynamic Cuckoo Filter (Chen, Liao, Jin & Wu 2017).

    A chain of fixed-size cuckoo filters: inserts go to the newest link
    with room; deletes search the chain for the fingerprint (cuckoo links,
    unlike Bloom links, can delete); queries probe every link.  Compaction
    of sparse links is modelled by dropping emptied links.
    """

    supports_deletes = True

    def __init__(self, link_capacity: int, epsilon: float, *, seed: int = 0):
        if link_capacity <= 0:
            raise ValueError("link_capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.link_capacity = link_capacity
        super().__init__(epsilon, seed)

    def _new_link(self, index: int) -> CuckooFilter:
        # Every link MUST share one hash seed: fingerprints are then
        # chain-transferable (Chen et al. §III), so a key and a
        # fingerprint-colliding twin hold one copy each *somewhere* in the
        # chain and delete() removing any one copy is multiset-safe.  With
        # per-link seeds, delete(x) can consume y's copy in an earlier link
        # while x's survives in a later one — a false negative for y.
        del index
        return CuckooFilter.for_capacity(
            self.link_capacity, self.epsilon, seed=self.seed
        )

    def insert(self, key: Key) -> None:
        for link in reversed(self._links):
            if len(link) < self.link_capacity:
                try:
                    link.insert(key)
                    self._n += 1
                    return
                except FilterFullError:
                    continue
        self.expand()
        self._links[-1].insert(key)
        self._n += 1

    def delete(self, key: Key) -> None:
        for link in self._links:
            try:
                link.delete(key)
            except DeletionError:
                continue
            self._n -= 1
            if len(link) == 0 and len(self._links) > 1:
                self._links.remove(link)  # compaction of an emptied link
            return
        raise DeletionError("delete of a key that was never inserted")

    @property
    def capacity(self) -> int:
        return self.link_capacity * len(self._links)
