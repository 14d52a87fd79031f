"""Abstract interfaces for the §2 filter taxonomy.

The tutorial's thesis is that applications should program against the
*modern filter API* — deletes, counting, values, ranges, adaptivity,
expansion — rather than the lowest-common-denominator Bloom interface.
These ABCs are that API.

Key conventions
---------------
* Keys are ``int | str | bytes``; filters hash internally.
* ``may_contain`` never returns a false negative for an inserted key.
* ``size_in_bits`` is the *logical* encoded size (see DESIGN.md).
* All filters take a ``seed`` so experiments are reproducible.

Batch API (docs/performance.md)
-------------------------------
``may_contain_many`` / ``insert_many`` operate on a whole key batch per
call.  The base-class defaults loop the scalar operations, so every
filter family is batch-correct by construction; the workhorse families
(Bloom, cuckoo, quotient, XOR, ribbon) override them with vectorised
numpy kernels.  The contract: ``may_contain_many(keys)`` returns a bool
ndarray of ``len(keys)`` where element *i* equals ``may_contain(keys[i])``
exactly — same hash path, same result, order preserved — and
``insert_many`` is equivalent to inserting each key in order.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

Key = int | str | bytes

KeyBatch = Sequence[Key] | np.ndarray


def as_key_list(keys) -> list:
    """Normalise a key batch to a list of plain Python keys.

    numpy integer arrays become Python ints (``tolist``), so scalar
    fallbacks and ground-truth set lookups see hashable built-in types.
    """
    if isinstance(keys, np.ndarray):
        return keys.tolist()
    if isinstance(keys, list):
        return keys
    return list(keys)


class Filter(abc.ABC):
    """Approximate-membership base: the one operation every filter has."""

    @abc.abstractmethod
    def may_contain(self, key: Key) -> bool:
        """True if *key* may be in the set; False means definitely absent."""

    def __contains__(self, key: Key) -> bool:
        return self.may_contain(key)

    def may_contain_many(self, keys: KeyBatch) -> np.ndarray:
        """Batch membership: element *i* is ``may_contain(keys[i])``.

        This default loops the scalar probe, so it is correct for every
        subclass; the hot families override it with vectorised kernels.
        Returns a bool ndarray (empty batches return an empty array).
        """
        key_list = as_key_list(keys)
        return np.fromiter(
            (self.may_contain(key) for key in key_list),
            dtype=bool,
            count=len(key_list),
        )

    @property
    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Logical encoded size of the structure in bits."""

    @property
    def bits_per_key(self) -> float:
        """Logical bits per stored key (0.0 when empty).

        Empty filters report 0.0, not nan: a nan silently poisons any
        benchmark aggregate it is averaged into.
        """
        n = len(self)
        return self.size_in_bits / n if n else 0.0

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of keys currently represented."""


class StaticFilter(Filter):
    """Build-once filter over a known key set (XOR, ribbon, Bloomier).

    Construction happens in ``__init__`` (or a ``build`` classmethod); any
    mutation raises :class:`~repro.core.errors.ImmutableFilterError`.
    """

    @classmethod
    @abc.abstractmethod
    def build(cls, keys: Iterable[Key], epsilon: float, *, seed: int = 0) -> "StaticFilter":
        """Construct a filter over *keys* with target false-positive rate."""


class DynamicFilter(Filter):
    """Filter supporting online inserts; deletes where `supports_deletes`."""

    supports_deletes: bool = False

    @abc.abstractmethod
    def insert(self, key: Key) -> None:
        """Add *key*.  Raises FilterFullError if it cannot be placed."""

    def insert_many(self, keys: KeyBatch) -> None:
        """Insert a key batch, equivalent to inserting each key in order.

        On ``FilterFullError`` the keys inserted so far stay inserted
        (same partial-progress semantics as the scalar loop it mirrors).
        """
        for key in as_key_list(keys):
            self.insert(key)

    def delete(self, key: Key) -> None:
        """Remove one copy of *key* (must have been inserted)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support deletion"
        )


class CountingFilter(DynamicFilter):
    """Multiset filter: queries return occurrence counts (§2.6).

    Counts may err high with probability at most the error rate, never low
    (absent counter saturation, which implementations must surface).
    """

    supports_deletes = True

    @abc.abstractmethod
    def count(self, key: Key) -> int:
        """Estimated multiplicity of *key* (0 means definitely absent)."""

    def may_contain(self, key: Key) -> bool:
        return self.count(key) > 0


class Maplet(abc.ABC):
    """Key/value filter (§2.4): returns candidate values for a key.

    ``get`` returns every value whose fingerprint matched — the associated
    value plus possibly arbitrary extras.  PRS/NRS (expected positive /
    negative result sizes) are the quality metrics.
    """

    @abc.abstractmethod
    def get(self, key: Key) -> list[Any]:
        """Candidate values for *key* (possibly empty)."""

    def may_contain(self, key: Key) -> bool:
        return bool(self.get(key))

    @property
    @abc.abstractmethod
    def size_in_bits(self) -> int: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @property
    def bits_per_key(self) -> float:
        n = len(self)
        return self.size_in_bits / n if n else 0.0


class DynamicMaplet(Maplet):
    """Maplet with online insert/delete (quotient/cuckoo-based)."""

    @abc.abstractmethod
    def insert(self, key: Key, value: Any) -> None: ...

    @abc.abstractmethod
    def delete(self, key: Key, value: Any) -> None: ...


class RangeFilter(abc.ABC):
    """ε-approximate range-emptiness structure over integer keys (§2.5)."""

    @abc.abstractmethod
    def may_intersect(self, lo: int, hi: int) -> bool:
        """True if [lo, hi] may contain a key; False means certainly empty."""

    def may_contain(self, key: int) -> bool:
        """Point query = degenerate range query."""
        return self.may_intersect(key, key)

    @property
    @abc.abstractmethod
    def size_in_bits(self) -> int: ...

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @property
    def bits_per_key(self) -> float:
        n = len(self)
        return self.size_in_bits / n if n else 0.0


class AdaptiveFilter(DynamicFilter):
    """Filter that can fix a discovered false positive (§2.3).

    The host dictionary calls ``report_false_positive`` after paying the
    remote access that exposed the error; a (monotone) adaptive filter then
    guarantees the same negative key keeps false-positiving with probability
    at most ε, independent of history.
    """

    @abc.abstractmethod
    def report_false_positive(self, key: Key) -> None:
        """Adapt so that *key* (a confirmed negative) stops matching."""


class ExpandableFilter(DynamicFilter):
    """Filter that grows capacity without access to the original keys (§2.2)."""

    @abc.abstractmethod
    def expand(self) -> None:
        """Increase capacity (typically doubling).

        Raises :class:`~repro.core.errors.NotExpandableError` when the
        design has exhausted its ability to grow.
        """

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Current insert capacity."""

    def insert_autogrow(self, key: Key) -> None:
        """Insert, expanding as needed — the API applications actually want."""
        from repro.core.errors import FilterFullError

        while True:
            try:
                self.insert(key)
                return
            except FilterFullError:
                self.expand()
