"""Stacked filters (Deeds, Hentschel & Idreos 2020, PVLDB).

Given the key set *and* a sample of frequently queried non-keys, build a
stack of alternating filters:

* L1 holds the keys.  A query that misses L1 is definitely negative.
* L2 holds the known hot negatives *that pass L1*.  A query that hits L1
  and hits L2 is (almost certainly) one of the hot negatives → answer no.
* L3 holds the keys that pass L2, rescuing true members that collided with
  the hot-negative layer (no false negatives, ever).

Hot negatives therefore false-positive only with probability ε1·ε3 —
"exponentially decrease the false positive rate when querying for them"
(§2.8) as layers are added.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.interfaces import Filter, Key
from repro.filters.bloom import BloomFilter


class StackedFilter(Filter):
    """Stacked Bloom filter of configurable depth.

    Layers alternate: odd layers hold (surviving) member keys, even layers
    hold (surviving) hot negatives.  A query walks down until some layer
    rejects it: rejection at an odd layer means "not a member"; at an even
    layer means "not a known hot negative" → accept.  Each added layer
    pair multiplies the hot-negative FPR by another ε — the paper's
    "exponentially decrease the false positive rate when querying for
    them".  Three layers (the paper's canonical configuration) is the
    default.
    """

    def __init__(
        self,
        keys: Iterable[Key],
        hot_negatives: Iterable[Key],
        *,
        epsilon: float = 0.01,
        negative_epsilon: float = 0.01,
        n_layers: int = 3,
        seed: int = 0,
    ):
        if n_layers < 1 or n_layers % 2 == 0:
            raise ValueError("n_layers must be odd (key layers close the stack)")
        key_list = list(keys)
        hot = list(hot_negatives)
        self._n = len(key_list)
        overlap = set(key_list) & set(hot)
        if overlap:
            raise ValueError(f"hot negatives contain member keys: {sorted(overlap)[:3]}")

        self._layers: list[BloomFilter] = []
        survivors_pos = key_list
        survivors_neg = hot
        for depth in range(n_layers):
            positive_layer = depth % 2 == 0
            population = survivors_pos if positive_layer else survivors_neg
            if not population:
                break
            eps = epsilon if positive_layer else negative_epsilon
            layer = BloomFilter(max(1, len(population)), eps, seed=seed ^ (depth + 1))
            for key in population:
                layer.insert(key)
            self._layers.append(layer)
            # Only items the new layer wrongly admits survive to the next.
            if positive_layer:
                survivors_neg = [k for k in survivors_neg if layer.may_contain(k)]
            else:
                survivors_pos = [k for k in survivors_pos if layer.may_contain(k)]

    def may_contain(self, key: Key) -> bool:
        for depth, layer in enumerate(self._layers):
            if not layer.may_contain(key):
                # Rejected by a key layer → definitely absent; rejected by
                # a negative layer → not a known hot negative → present.
                return depth % 2 == 1
        # Ran off the stack: the last layer's polarity decides.
        return len(self._layers) % 2 == 1

    def __len__(self) -> int:
        return self._n

    @property
    def size_in_bits(self) -> int:
        return sum(layer.size_in_bits for layer in self._layers)
