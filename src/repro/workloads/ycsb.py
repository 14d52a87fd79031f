"""YCSB-style mixed workloads for the LSM experiments.

The standard cloud-serving benchmark mixes, as used throughout the
LSM-tree literature the tutorial draws on (RocksDB at Facebook is
characterised in exactly these terms — Cao et al., cited in §1):

* **A** — update heavy (50% reads / 50% updates)
* **B** — read mostly (95% / 5%)
* **C** — read only
* **D** — read latest (reads skewed to recent inserts)
* **E** — short scans (95% scans / 5% inserts)

Keys are drawn Zipfian (the YCSB default).  ``run_workload`` drives any
object with put/get/range_query (our :class:`~repro.apps.lsm.LSMTree`),
and reports the operation mix actually issued.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ZIPF_SKEW = 0.99  # the YCSB default Zipf constant

WORKLOADS = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read_latest": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
}


@dataclass
class WorkloadResult:
    ops: dict[str, int] = field(default_factory=dict)
    read_misses: int = 0

    def count(self, op: str) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1


def _zipf_indexes(rng, n: int, count: int) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-ZIPF_SKEW
    weights /= weights.sum()
    return rng.choice(n, size=count, p=weights)


def run_workload(
    store,
    workload: str,
    n_ops: int,
    *,
    key_space: list[int],
    scan_length: int = 64,
    seed: int = 0,
) -> WorkloadResult:
    """Drive *store* with *n_ops* operations of the named YCSB mix.

    ``key_space`` is the pool of keys (pre-loaded keys first; inserts
    append fresh ones from beyond the pool).
    """
    spec = WORKLOADS.get(workload)
    if spec is None:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    result = WorkloadResult()
    keys = list(key_space)
    op_names = list(spec)
    op_probs = np.asarray([spec[o] for o in op_names])
    ops = rng.choice(len(op_names), size=n_ops, p=op_probs / op_probs.sum())
    zipf_picks = iter(_zipf_indexes(rng, len(keys), n_ops))
    next_fresh = max(keys) + 1

    for op_index in ops:
        op = op_names[int(op_index)]
        result.count(op)
        if op == "read":
            key = keys[int(next(zipf_picks))]
            if store.get(key) is None:
                result.read_misses += 1
        elif op == "read_latest":
            # Skewed towards the most recently inserted keys.
            offset = int(next(zipf_picks)) % len(keys)
            key = keys[len(keys) - 1 - offset % max(1, len(keys) // 10)]
            if store.get(key) is None:
                result.read_misses += 1
        elif op == "update":
            key = keys[int(next(zipf_picks))]
            store.put(key, int(rng.integers(1 << 30)))
        elif op == "insert":
            store.put(next_fresh, int(rng.integers(1 << 30)))
            keys.append(next_fresh)
            next_fresh += 1
        elif op == "scan":
            lo = keys[int(next(zipf_picks))]
            store.range_query(lo, lo + scan_length - 1)
    return result
