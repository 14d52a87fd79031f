"""Which public calls the traced run wraps, and the per-layer counters.

:func:`trace_targets` names one span per layer boundary, by module:

=====================  =================================================
layer (module)         wrapped calls → span name
=====================  =================================================
serve.served           ``ServedFilter.serve`` → ``served.serve``
obs.metrics            registry ``counter/gauge/histogram`` and
                       ``labels()`` → ``obs.registry``
serve.admission        ``AdmissionController.admit`` → ``admission.admit``
cache.results          ``NegativeLookupCache.known_absent`` →
                       ``negcache.known_absent``
cache.block            ``CachedDevice.read`` → ``blockcache.read``
apps.lsm               ``LSMTree.lookup/put/flush`` → ``lsm.*``
filters.bloom          ``BloomFilter.may_contain`` → ``bloom.may_contain``;
                       ``insert`` and ``insert_many`` → ``bloom.build``
common.faults          ``RetryPolicy.call`` → ``retry.call``;
                       ``FaultyBlockDevice.read/write`` → ``device.*``
serve.breaker          ``BreakerDevice.read`` → ``breaker.read``
serve.reshard          ``ShardedStore.lookup/put`` → ``sharded.*``;
                       ``ReshardCoordinator.pump`` → ``reshard.pump``
serve.replica          ``ReplicatedStore.lookup/put`` → ``replica.*``;
                       ``HintedHandoff.replay`` → ``handoff.replay``;
                       ``AntiEntropyRepairer.pump/converged/_check_bucket``
                       → ``repair.pump/converged/check_bucket``
core.routing           ``owner`` → ``routing.owner``;
                       ``preference_list`` → ``routing.preference_list``
serve.tenant           ``TenantStore.lookup`` → ``tenant.lookup``;
                       ``add_tenant`` and ``remove_tenant`` → ``tenant.churn``
core.bloofi            ``BloofiTree.candidates`` → ``bloofi.candidates``
=====================  =================================================

:func:`snapshot` reads the raw counters the stack already keeps (the
fresh default registry, the stores' own tallies); :func:`layer_counters`
turns two snapshots into the per-layer counts and ratios of one phase.
"""

from __future__ import annotations

from repro.apps.lsm import _ENTRY_BYTES, LSMTree
from repro.cache import CachedDevice, NegativeLookupCache
from repro.common.faults import FaultyBlockDevice, RetryPolicy
from repro.core.bloofi import BloofiTree
from repro.core.routing import ConsistentHashRouter, HashRangeRouter
from repro.filters.bloom import BloomFilter
from repro.obs.metrics import MetricsRegistry, _Metric, default_registry
from repro.serve import (
    AdmissionController,
    AntiEntropyRepairer,
    BreakerDevice,
    BreakerState,
    HintedHandoff,
    ReplicatedStore,
    ReshardCoordinator,
    ServedFilter,
    ShardedStore,
    TenantStore,
)


class RepairedBuckets:
    """Counts ``_check_bucket`` calls that streamed at least one record."""

    def __init__(self):
        self.count = 0
        self._seen: dict[int, int] = {}

    def watch(self, repairer) -> None:
        self._seen[id(repairer)] = repairer.repairs

    def __call__(self, args, result) -> None:
        repairer = args[0]
        seen = self._seen.get(id(repairer), 0)
        if repairer.repairs > seen:
            self.count += 1
        self._seen[id(repairer)] = repairer.repairs


def trace_targets(repaired: RepairedBuckets) -> list[tuple]:
    """``(class, method, span name[, after-hook])`` for every layer."""
    return [
        (ServedFilter, "serve", "served.serve"),
        (MetricsRegistry, "counter", "obs.registry"),
        (MetricsRegistry, "gauge", "obs.registry"),
        (MetricsRegistry, "histogram", "obs.registry"),
        (_Metric, "labels", "obs.registry"),
        (AdmissionController, "admit", "admission.admit"),
        (NegativeLookupCache, "known_absent", "negcache.known_absent"),
        (CachedDevice, "read", "blockcache.read"),
        (LSMTree, "lookup", "lsm.lookup"),
        (LSMTree, "put", "lsm.put"),
        (LSMTree, "flush", "lsm.flush"),
        (BloomFilter, "may_contain", "bloom.may_contain"),
        (BloomFilter, "insert", "bloom.build"),
        (BloomFilter, "insert_many", "bloom.build"),
        (RetryPolicy, "call", "retry.call"),
        (FaultyBlockDevice, "read", "device.read"),
        (FaultyBlockDevice, "write", "device.write"),
        (BreakerDevice, "read", "breaker.read"),
        (ShardedStore, "lookup", "sharded.lookup"),
        (ShardedStore, "put", "sharded.put"),
        (ReshardCoordinator, "pump", "reshard.pump"),
        (ReplicatedStore, "lookup", "replica.lookup"),
        (ReplicatedStore, "put", "replica.put"),
        (HintedHandoff, "replay", "handoff.replay"),
        (AntiEntropyRepairer, "pump", "repair.pump"),
        (AntiEntropyRepairer, "converged", "repair.converged"),
        (AntiEntropyRepairer, "_check_bucket", "repair.check_bucket", repaired),
        (HashRangeRouter, "owner", "routing.owner"),
        (ConsistentHashRouter, "owner", "routing.owner"),
        (ConsistentHashRouter, "preference_list", "routing.preference_list"),
        (TenantStore, "lookup", "tenant.lookup"),
        (TenantStore, "add_tenant", "tenant.churn"),
        (TenantStore, "remove_tenant", "tenant.churn"),
        (BloofiTree, "candidates", "bloofi.candidates"),
    ]


def _registry_total(name: str, **labels) -> float:
    metric = default_registry().get(name)
    if metric is None:
        return 0
    return sum(
        child.value for labelset, child in metric.series()
        if all(labelset.get(k) == v for k, v in labels.items())
    )


def snapshot(workload) -> dict[str, float]:
    """Raw cumulative counters of *workload*'s stack, right now."""
    served = workload.served
    raw = {
        "admitted": served.admission.stats.admitted,
        "shed": served.admission.stats.shed,
        "lsm_lookups": _registry_total("repro_lsm_lookups_total"),
        "lsm_ios_hit": _registry_total("repro_lsm_lookup_ios_total", outcome="hit"),
        "lsm_ios_wasted": _registry_total(
            "repro_lsm_lookup_ios_total", outcome="wasted"),
        "lsm_compactions": _registry_total("repro_lsm_compactions_total"),
        "lsm_puts": _registry_total("repro_lsm_wal_appends_total"),
        "bloom_positive": _registry_total(
            "repro_lsm_filter_probes_total", result="positive"),
        "bloom_fp": _registry_total("repro_lsm_filter_false_positives_total"),
        "retries": _registry_total("repro_retry_attempts_total", outcome="retry"),
        "bytes_written": _registry_total("repro_device_bytes_written_total"),
        "fast_fails": _registry_total("repro_breaker_fast_fails_total"),
        "keys_moved": _registry_total("repro_reshard_keys_total", action="moved"),
    }
    if served.breaker_device is not None:
        raw["breaker_opens"] = served.breaker_device.n_transitions(BreakerState.OPEN)
    neg = served.negative_cache
    if neg is not None:
        raw.update(neg_hits=neg.hits, neg_misses=neg.misses,
                   neg_flushes=neg.epoch_flushes)
    cache = getattr(getattr(workload, "tree", None), "device", None)
    if isinstance(cache, CachedDevice):
        stats = cache.cache.stats
        raw.update(bc_hits=stats.hits, bc_misses=stats.misses,
                   bc_evictions=stats.evictions)
    store = getattr(workload, "store", None)
    if isinstance(store, ShardedStore):
        raw.update(owner_reads=store.owner_reads, sharded_lookups=store.lookups)
    if isinstance(store, ReplicatedStore):
        raw.update(hints_replayed=store.handoff.replayed,
                   buckets_checked=workload.repairer.buckets_checked)
    if isinstance(store, TenantStore):
        raw.update(tenant_probes=store.probes_total,
                   tenant_lookups=store.lookups, tenants=store.n_tenants)
    return raw


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counters(before: dict, after: dict, workload,
                   repaired: RepairedBuckets | None = None) -> dict[str, float]:
    """Per-layer counts and ratios between two :func:`snapshot` s."""
    d = {k: after[k] - before.get(k, 0) for k in after}
    out = {
        "admission.shed_frac": _ratio(d["shed"], d["admitted"] + d["shed"]),
        "lsm.ios_per_lookup": _ratio(
            d["lsm_ios_hit"] + d["lsm_ios_wasted"], d["lsm_lookups"]),
        "lsm.wasted_ios_per_lookup": _ratio(d["lsm_ios_wasted"], d["lsm_lookups"]),
        "lsm.compactions": d["lsm_compactions"],
        "lsm.write_amp": _ratio(d["bytes_written"], d["lsm_puts"] * _ENTRY_BYTES),
        "bloom.fp_frac": _ratio(d["bloom_fp"], d["bloom_positive"]),
        "bloom.bits_per_key": _bits_per_key(workload),
        "retry.retries": d["retries"],
        "device.bytes_written": d["bytes_written"],
        "breaker.fast_fails": d["fast_fails"],
        "breaker.opens": d.get("breaker_opens", 0),
        "negcache.hit_rate": _ratio(
            d.get("neg_hits", 0), d.get("neg_hits", 0) + d.get("neg_misses", 0)),
        "negcache.epoch_flushes": d.get("neg_flushes", 0),
        "blockcache.hit_rate": _ratio(
            d.get("bc_hits", 0), d.get("bc_hits", 0) + d.get("bc_misses", 0)),
        "blockcache.evictions": d.get("bc_evictions", 0),
        "reshard.keys_moved": d["keys_moved"],
        "reshard.double_read_amp": _ratio(
            d.get("owner_reads", 0), d.get("sharded_lookups", 0)),
        "handoff.hints_replayed": d.get("hints_replayed", 0),
        "repair.buckets_checked": d.get("buckets_checked", 0),
        "tenant.probes_per_lookup": _ratio(
            d.get("tenant_probes", 0), d.get("tenant_lookups", 0)),
    }
    out["bloofi.probe_frac"] = _ratio(
        out["tenant.probes_per_lookup"], after.get("tenants", 0))
    if repaired is not None:
        out["repair.repair_frac"] = _ratio(
            repaired.count, d.get("buckets_checked", 0))
    return out


def _bits_per_key(workload) -> float:
    """Filter bits per stored entry across the workload's LSM-trees; for
    the tenant stack, summary-tree plus authoritative bits per key."""
    store = getattr(workload, "store", None)
    if isinstance(store, TenantStore):
        return _ratio(store.router.size_in_bits, store.total_keys())
    trees = workload.trees()
    return _ratio(sum(t.filter_bits for t in trees),
                  sum(t.n_entries_on_disk for t in trees))
