"""repro.cache — the cache tier for the LSM/serving stack.

The tutorial's storage section argues filters exist to avoid device I/O,
but filter savings only become end-to-end wins when the *metadata and
hot data* those lookups touch are cache-resident (SlimDB, Chucky —
PAPERS.md).  This package is that missing half, RocksDB-style:

* :class:`BlockCache` + :class:`CachedDevice` — a seeded, size-bounded
  block cache (LRU, optionally TinyLFU admission) interposed as a
  device wrapper.  Hits skip the wrapped device entirely: no simulated
  I/O, no injected faults or latency, no circuit-breaker traffic.
* :class:`FilterResultCache` — per-run memoization of *negative* filter
  verdicts, invalidation versioned by run id (run ids are never
  reused), so a stale ABSENT is impossible by construction.
* :class:`NegativeLookupCache` — authoritative-ABSENT memoization for
  :class:`~repro.serve.served.ServedFilter`, versioned by the backend's
  mutation epoch.  Degraded/timed-out MAYBE answers never
  populate it (docs/robustness.md).

Everything is metered through :mod:`repro.obs` (hits, misses,
evictions, admission rejects, invalidation storms) and sized in
simulated bytes, so ``serve-sim --cache-mb`` and bench P2 report
hit-rate-vs-goodput curves.  See docs/performance.md.
"""

from repro.cache.block import BlockCache, CachedDevice, CacheStats
from repro.cache.results import FilterResultCache, NegativeLookupCache

__all__ = [
    "BlockCache",
    "CacheStats",
    "CachedDevice",
    "FilterResultCache",
    "NegativeLookupCache",
]
