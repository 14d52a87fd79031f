"""Synthetic key and query generators.

Covers the workload shapes the tutorial's claims are stated over:

* uniform random key sets (the default filter benchmark),
* Zipfian query streams (Bender et al.'s adaptivity analysis, CQF skew),
* adversarial repeat-the-false-positive streams (the adaptive-adversary
  model of §2.3),
* correlated range queries (the SuRF-killing workload of §2.5).
"""

from __future__ import annotations

import numpy as np

KEY_UNIVERSE_BITS = 48
KEY_UNIVERSE = 1 << KEY_UNIVERSE_BITS


def random_key_set(n: int, seed: int = 0, universe: int = KEY_UNIVERSE) -> list[int]:
    """*n* distinct uniform keys from ``[0, universe)``."""
    rng = np.random.default_rng(seed)
    keys: set[int] = set()
    while len(keys) < n:
        batch = rng.integers(0, universe, size=n - len(keys) + 16, dtype=np.int64)
        keys.update(int(k) for k in batch)
    return sorted(keys)[:n]


def disjoint_key_sets(
    n_members: int, n_negatives: int, seed: int = 0
) -> tuple[list[int], list[int]]:
    """A member set and a disjoint negative-query set."""
    combined = random_key_set(n_members + n_negatives, seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    order = rng.permutation(len(combined))
    members = [combined[i] for i in order[:n_members]]
    negatives = [combined[i] for i in order[n_members:]]
    return members, negatives


def zipf_queries(
    population: list[int], n_queries: int, skew: float, seed: int = 0
) -> list[int]:
    """*n_queries* draws from *population* with Zipf(*skew*) rank weights.

    skew=0 degenerates to uniform; larger skew concentrates queries on a few
    hot elements — the regime where non-adaptive filters keep repeating the
    same false positives.
    """
    if not population:
        raise ValueError("population must be non-empty")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(population) + 1, dtype=np.float64)
    weights = ranks ** (-skew) if skew > 0 else np.ones_like(ranks)
    weights /= weights.sum()
    draws = rng.choice(len(population), size=n_queries, p=weights)
    return [population[i] for i in draws]


def zipf_multiset(
    n_distinct: int, n_total: int, skew: float, seed: int = 0
) -> dict[int, int]:
    """A multiset: *n_distinct* keys with Zipf-distributed multiplicities
    summing to roughly *n_total*.  Feeds the counting-filter experiments."""
    keys = random_key_set(n_distinct, seed)
    draws = zipf_queries(keys, n_total, skew, seed ^ 0xC0)
    counts: dict[int, int] = {}
    for key in draws:
        counts[key] = counts.get(key, 0) + 1
    return counts


def adversarial_repeat_queries(
    negatives: list[int],
    is_false_positive,
    n_queries: int,
    seed: int = 0,
) -> list[int]:
    """The adaptive adversary of §2.3.

    Probes fresh negatives; whenever one comes back as a false positive the
    adversary re-asks it (half of all queries replay a known FP).  Every
    issued query — fresh or replayed — goes through the
    ``is_false_positive(key)`` oracle, which in the dictionary setting *is*
    the query (the adversary learns the truth by watching the disk access).
    A replay that no longer false-positives (the filter adapted) is dropped
    from the replay pool: the adversary only hammers what still works.
    Returns the query sequence actually issued.
    """
    rng = np.random.default_rng(seed)
    discovered: list[int] = []
    fresh = list(negatives)
    rng.shuffle(fresh)
    fresh_iter = iter(fresh)
    queries: list[int] = []
    while len(queries) < n_queries:
        # Alternate: half the time re-ask a known FP, half probe fresh keys.
        replay = bool(discovered) and rng.random() < 0.5
        if replay:
            index = int(rng.integers(len(discovered)))
            key = discovered[index]
        else:
            key = next(fresh_iter, None)
            if key is None:
                if not discovered:
                    break
                replay = True
                index = int(rng.integers(len(discovered)))
                key = discovered[index]
        queries.append(key)
        still_fp = is_false_positive(key)
        if replay and not still_fp:
            discovered.pop(index)
        elif not replay and still_fp:
            discovered.append(key)
    return queries


def random_range_queries(
    n_queries: int,
    range_len: int,
    seed: int = 0,
    universe: int = KEY_UNIVERSE,
) -> list[tuple[int, int]]:
    """Uniform [lo, lo + range_len - 1] interval queries."""
    rng = np.random.default_rng(seed)
    los = rng.integers(0, universe - range_len, size=n_queries, dtype=np.int64)
    return [(int(lo), int(lo) + range_len - 1) for lo in los]


def correlated_range_queries(
    keys: list[int],
    n_queries: int,
    range_len: int,
    gap: int,
    seed: int = 0,
) -> list[tuple[int, int]]:
    """Ranges starting just *gap* above an existing key.

    This is the key-query–correlated workload of §2.5 under which trie-based
    filters (SuRF) lose their filtering power: queried ranges share long
    prefixes with stored keys without containing them.
    """
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(keys), size=n_queries)
    out = []
    for i in picks:
        lo = keys[int(i)] + gap
        out.append((lo, lo + range_len - 1))
    return out
