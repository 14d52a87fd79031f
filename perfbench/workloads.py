"""The benchmark's four seeded serving workloads and their oracles.

Each workload builds one topology through its public ``build_*`` function
and then answers one request at a time from :func:`run.drive`:
``tick`` runs the background work due before a request (migration,
hinted-handoff and repair pumps, tenant churn) and ``request`` makes the
foreground call (``ServedFilter.serve`` or the store's ``put``), times it
in wall-clock nanoseconds and checks the answer against the workload's
ground truth.  Every input comes from the seed; the stack receives only
the generated keys and arrival times.

Arrivals are an open-loop Poisson schedule in *simulated* time, cycling
through calm, fault-storm and recovery phases; in *wall* time the single
client is closed-loop (the next call starts when the previous returns).

Why these four:

* ``read-zipf`` — the read path (admission, served facade, negative
  cache, LSM lookup, Bloom probe, block cache, breaker, retry, faulty
  device) does almost all the work; the only workload whose hot set fits
  in the block cache.  Half the reads are Zipf-hot present keys, a
  quarter repeat Zipf-hot absent keys (the negative cache's case) and a
  quarter are fresh absent keys (its bypass).
* ``write-split`` — the write path (WAL, flush, compaction, filter build,
  manifest checkpoint) plus online-split pumps and double reads; every
  write bumps the mutation epoch.
* ``replica-heal`` — quorum fan-out, hinted handoff, anti-entropy repair
  and ring placement, with one replica killed and healed each cycle.
* ``tenant-churn`` — Bloofi descent and per-probe fault draws under
  per-tenant quotas, with tenants provisioned and deprovisioned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps.lsm import _ENTRY_BYTES, LSMConfig
from repro.common.clock import Answer
from repro.common.faults import CircuitOpenError, TransientIOError
from repro.serve import (
    Priority,
    ServeOutcome,
    StormPhase,
    TenantQuota,
    build_replicated_stack,
    build_sharded_stack,
    build_stack,
    build_tenant_stack,
)

_PRIORITIES = (Priority.HIGH, Priority.NORMAL, Priority.LOW)
_PRIORITY_WEIGHTS = (0.2, 0.6, 0.2)
_ABSENT_BASE = 1 << 40  # disjoint from every key a workload ever writes


def storm_cycle(calm: int, storm: int, recovery: int,
                interarrival: float) -> tuple[StormPhase, ...]:
    """One calm → fault-storm → recovery cycle of the arrival schedule.

    The storm is mild enough that most reads are still SERVED, so the
    benchmark times the serving path rather than the cheap shed path.
    """
    return (
        StormPhase("calm", calm, interarrival),
        StormPhase("storm", storm, interarrival, transient_read=0.2,
                   slowdown=2.0, spike_prob=0.02),
        StormPhase("recovery", recovery, interarrival),
    )


class Zipf:
    """Seeded Zipf(*skew*) draws over *population* (rank order = list order)."""

    def __init__(self, population, skew: float, seed: int):
        ranks = np.arange(1, len(population) + 1, dtype=np.float64)
        weights = ranks ** (-skew)
        self._cdf = np.cumsum(weights) / weights.sum()
        self._population = population
        self._rng = np.random.default_rng(seed)
        self._buffer: list[int] = []

    def draw(self):
        if not self._buffer:
            idx = np.searchsorted(self._cdf, self._rng.random(4096), side="right")
            self._buffer = np.minimum(idx, len(self._cdf) - 1).tolist()
        return self._population[self._buffer.pop()]


@dataclass
class Traffic:
    """What one traffic phase did, in wall and in simulated time."""

    read_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    ops: int = 0
    writes_raised: int = 0
    not_served: int = 0  # reads not answered SERVED, plus writes that raised
    sim_latency: list[float] = field(default_factory=list)  # SERVED reads
    violations: list[str] = field(default_factory=list)
    wall_s: float = 0.0  # traffic time, host probes excluded
    probing_s: float = 0.0  # time spent in host probes
    first_probe: float = 0.0  # host probe taken as traffic started
    # One (wall seconds, reads, writes, ops, probe seconds) per stretch of
    # traffic between host probes; counts are cumulative at its end.
    windows: list[tuple[float, int, int, int, float]] = field(
        default_factory=list)

    def close_window(self, wall: float, probe: float) -> None:
        self.windows.append(
            (wall, len(self.read_ns), len(self.write_ns), self.ops, probe))


class Workload:
    """Shared plumbing: phase switching, the timed serve call, the oracle."""

    name = ""
    fault_classes: tuple[str, ...] = ("run", "page", "filter")
    converges = False  # True: drain() finishes a migration or a repair

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.params = dict(self.SCALES[scale])
        self.rng = random.Random(seed ^ 0xBE7C)
        p = self.params
        self.cycle = storm_cycle(p["calm"], p["storm"], p["recovery"],
                                 self.interarrival)
        self.cycle_len = sum(phase.n_requests for phase in self.cycle)

    # -- set-up ----------------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    # -- traffic ---------------------------------------------------------------

    def set_phase(self, phase: StormPhase) -> None:
        rate = phase.transient_read
        self.injector.transient_read = {
            **{cls: rate for cls in self.fault_classes}, "*": 0.0,
        }
        self.latency.slowdown = phase.slowdown
        self.latency.spike_prob = phase.spike_prob

    def tick(self, index: int, arrival: float, traffic: Traffic) -> None:
        """Background work due before request *index*."""

    def request(self, index: int, arrival: float, traffic: Traffic) -> None:
        raise NotImplementedError

    def serve(self, key, arrival: float, traffic: Traffic, tenant=None):
        priority = self.rng.choices(_PRIORITIES, weights=_PRIORITY_WEIGHTS)[0]
        t0 = time.perf_counter_ns()
        response = self.served.serve(
            key, priority=priority, arrival=arrival, tenant=tenant
        )
        traffic.read_ns.append(time.perf_counter_ns() - t0)
        traffic.ops += 1
        if response.outcome is ServeOutcome.SERVED:
            traffic.sim_latency.append(response.latency)
        else:
            traffic.not_served += 1
        return response

    def timed_put(self, store, key, value, arrival: float,
                  traffic: Traffic) -> bool:
        """One foreground write; False if it raised (an honest storm loss)."""
        self.clock.advance_to(arrival)
        t0 = time.perf_counter_ns()
        try:
            store.put(key, value)
            ok = True
        except (TransientIOError, CircuitOpenError):
            ok = False
        traffic.write_ns.append(time.perf_counter_ns() - t0)
        traffic.ops += 1
        if not ok:
            traffic.writes_raised += 1
            traffic.not_served += 1
        return ok

    # -- after traffic -----------------------------------------------------------

    def drain(self) -> None:
        """Finish background work after traffic stops (timed as converge_s)."""

    def final_violations(self) -> list[str]:
        return []

    def space_amp(self) -> float:
        """Device bytes in use divided by live user bytes."""
        return self.device.used_bytes / (self.live_keys() * _ENTRY_BYTES)

    def live_keys(self) -> int:
        raise NotImplementedError


class KeyOracle:
    """Ground truth for key/value stores under concurrent writes.

    ``committed`` holds keys whose ``put`` returned (they must never be
    answered ABSENT); ``attempted`` also holds keys whose ``put`` raised,
    which may or may not have landed (PRESENT is allowed only for these).
    """

    def __init__(self, preloaded: int):
        self.committed = set(range(preloaded))
        self.attempted = set(self.committed)

    def wrote(self, key, ok: bool) -> None:
        self.attempted.add(key)
        if ok:
            self.committed.add(key)

    def check(self, key, answer: Answer, violations: list[str]) -> None:
        if answer is Answer.ABSENT and key in self.committed:
            violations.append(f"false ABSENT for written key {key!r}")
        elif answer is Answer.PRESENT and key not in self.attempted:
            violations.append(f"PRESENT for never-written key {key!r}")


# -- read-zipf ---------------------------------------------------------------------


class ReadZipf(Workload):
    name = "read-zipf"
    SCALES = {
        "full": {"n_keys": 10_000, "calm": 300, "storm": 400, "recovery": 300},
        "tiny": {"n_keys": 600, "calm": 60, "storm": 80, "recovery": 60},
    }
    interarrival = 0.002
    requests_per_second = 7_000  # nominal: sizes a run from --seconds
    zipf_skew = 1.1
    cache_fraction = 0.10  # of run bytes: the Zipf-hot pages, not the data

    def build(self) -> None:
        n = self.params["n_keys"]
        cache_mb = self.cache_fraction * n * _ENTRY_BYTES / 2**20
        config = LSMConfig(memtable_entries=64, retry_attempts=3,
                           seed=self.seed, page_entries=8,
                           charge_filter_reads=True)
        (self.served, self.tree, self.device, self.injector, self.latency,
         self.clock) = build_stack(
            self.seed, n, lsm_config=config, cache_mb=cache_mb,
            cache_policy="tinylfu", negative_cache_entries=4096,
        )
        # Hot keys are scattered over the key space (and so over pages).
        order = random.Random(self.seed ^ 0x21FF)
        present = list(range(n))
        order.shuffle(present)
        absent = [_ABSENT_BASE - 1 - k for k in range(n)]
        order.shuffle(absent)
        self.present = Zipf(present, self.zipf_skew, self.seed)
        self.absent = Zipf(absent, self.zipf_skew, self.seed ^ 0xAB5)

    def request(self, index, arrival, traffic):
        roll = self.rng.random()
        if roll < 0.5:
            key = self.present.draw()
        elif roll < 0.75:
            key = self.absent.draw()  # repeats: the negative cache's case
        else:
            key = _ABSENT_BASE + self.rng.randrange(1 << 30)  # fresh: its bypass
        response = self.serve(key, arrival, traffic)
        n = self.params["n_keys"]
        if key < n:
            if response.answer is Answer.ABSENT:
                traffic.violations.append(f"false ABSENT for loaded key {key}")
            elif (response.answer is Answer.PRESENT
                  and response.value != f"value-{key}"):
                traffic.violations.append(f"wrong value for key {key}")
        elif response.answer is Answer.PRESENT:
            traffic.violations.append(f"PRESENT for absent key {key}")

    def live_keys(self) -> int:
        return self.params["n_keys"]

    def trees(self):
        return [self.tree]


# -- write-split -------------------------------------------------------------------


class WriteSplit(Workload):
    name = "write-split"
    converges = True
    SCALES = {
        "full": {"n_keys": 8_000, "calm": 300, "storm": 400, "recovery": 300},
        "tiny": {"n_keys": 600, "calm": 60, "storm": 80, "recovery": 60},
    }
    interarrival = 0.008
    requests_per_second = 3_400
    n_shards = 4
    plan_at = 0.05  # of each cycle: when the cycle's migration is planned

    def build(self) -> None:
        n = self.params["n_keys"]
        (self.served, self.store, self.coordinator, self.device,
         self.injector, self.latency, self.clock) = build_sharded_stack(
            self.seed, n, self.n_shards,
        )
        self.oracle = KeyOracle(n)
        self.next_key = n
        self.split_pair: tuple[int, int] | None = None

    def tick(self, index, arrival, traffic):
        if self.store.migration is None:
            if index % self.cycle_len == int(self.plan_at * self.cycle_len):
                self.plan()
            return
        self.coordinator.pump(arrival)

    def plan(self) -> None:
        """Split the largest shard; on the next cycle merge it back, so
        the shard count stays steady however long the run is."""
        if self.split_pair is None:
            mig = self.coordinator.plan_split()
            self.split_pair = (mig.source, mig.target)
        else:
            source, target = self.split_pair
            self.coordinator.plan_merge(target, source)
            self.split_pair = None

    def request(self, index, arrival, traffic):
        rng = self.rng
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                key = rng.randrange(self.next_key)
            else:
                key = self.next_key
                self.next_key += 1
            ok = self.timed_put(self.store, key, f"value-{key}-{index}",
                                arrival, traffic)
            self.oracle.wrote(key, ok)
            return
        if rng.random() < 0.5:
            key = rng.randrange(self.next_key)
        else:
            key = _ABSENT_BASE + rng.randrange(1 << 30)
        response = self.serve(key, arrival, traffic)
        self.oracle.check(key, response.answer, traffic.violations)

    def drain(self) -> None:
        while self.store.migration is not None:
            self.coordinator.pump(budget=0.050, force=True)

    def final_violations(self):
        if self.store.migration is not None:
            return ["migration still in flight after the drain"]
        return []

    def live_keys(self) -> int:
        return len(self.oracle.attempted)

    def trees(self):
        return list(self.store.shards.values())


# -- replica-heal ------------------------------------------------------------------


class ReplicaHeal(Workload):
    name = "replica-heal"
    converges = True
    SCALES = {
        "full": {"n_keys": 4_000, "calm": 300, "storm": 300, "recovery": 400},
        "tiny": {"n_keys": 400, "calm": 60, "storm": 60, "recovery": 80},
    }
    interarrival = 0.008
    requests_per_second = 4_000
    write_fraction = 0.10
    kill_at, heal_at = 0.2, 0.6  # of each cycle: calm, start of recovery
    victim = 1
    drain_rounds = 100_000

    def build(self) -> None:
        n = self.params["n_keys"]
        (self.served, self.store, self.repairer, self.device, self.injector,
         self.latency, self.clock) = build_replicated_stack(
            self.seed, n, 3, replication=3, read_quorum=2,
        )
        self.oracle = KeyOracle(n)
        self.next_key = n

    def tick(self, index, arrival, traffic):
        at = index % self.cycle_len
        if at == int(self.kill_at * self.cycle_len):
            self.store.kill(self.victim)
            return
        if at >= int(self.heal_at * self.cycle_len) \
                and not self.store.nodes[self.victim].alive:
            # Recovery reads the replica's runs back; while a breaker on
            # one of them is still open, try again on the next request.
            if self.try_heal(self.victim):
                return
        # Replay and repair alternate, as in run_replica_storm; replay
        # waits for idle runway so it does not stall foreground reads.
        if index % 2:
            if arrival - self.clock.now() >= 0.003:
                self.store.handoff.replay(batch=4)
        else:
            self.repairer.pump(arrival)

    def try_heal(self, node_id: int) -> bool:
        try:
            self.store.heal(node_id)
        except (TransientIOError, CircuitOpenError):
            return False
        return True

    def request(self, index, arrival, traffic):
        rng = self.rng
        if rng.random() < self.write_fraction:
            if rng.random() < 0.5:
                key = rng.randrange(self.next_key)
            else:
                key = self.next_key
                self.next_key += 1
            ok = self.timed_put(self.store, key, f"value-{key}-{index}",
                                arrival, traffic)
            self.oracle.wrote(key, ok)
            return
        if rng.random() < 0.5:
            key = rng.randrange(self.next_key)
        else:
            key = _ABSENT_BASE + rng.randrange(1 << 30)
        response = self.serve(key, arrival, traffic)
        self.oracle.check(key, response.answer, traffic.violations)

    def drain(self) -> None:
        """Heal every dead replica, replay every hint, repair to convergence."""
        store, repairer = self.store, self.repairer
        for _ in range(self.drain_rounds):
            dead = [n for n, node in sorted(store.nodes.items()) if not node.alive]
            for node_id in dead:
                self.try_heal(node_id)
            if store.handoff.replay(batch=16, force=True):
                continue
            repairer.pump(force=True)
            if not dead and repairer.idle and repairer.converged():
                return

    def final_violations(self):
        out = [f"r{n} still dead after the drain"
               for n, node in self.store.nodes.items() if not node.alive]
        if self.store.handoff.pending():
            out.append(f"{self.store.handoff.pending()} hints still pending")
        if not self.repairer.converged():
            out.append("replicas not converged after the drain")
        return out

    def live_keys(self) -> int:
        return len(self.oracle.attempted)

    def trees(self):
        return [node.tree for node in self.store.nodes.values()]


# -- tenant-churn ------------------------------------------------------------------


class TenantChurn(Workload):
    name = "tenant-churn"
    SCALES = {
        "full": {"n_tenants": 2_000, "calm": 200, "storm": 300, "recovery": 200},
        "tiny": {"n_tenants": 120, "calm": 40, "storm": 60, "recovery": 40},
    }
    fault_classes = ("tenant_node", "tenant_leaf", "tenant_store")
    interarrival = 0.040
    requests_per_second = 630
    keys_per_tenant = 8
    churn_every = 50
    zipf_skew = 1.1

    def build(self) -> None:
        n = self.params["n_tenants"]
        (self.served, self.store, self.injector, self.latency,
         self.clock) = build_tenant_stack(
            self.seed, n_tenants=n, keys_per_tenant=self.keys_per_tenant,
            n_trees=4, quota=TenantQuota(),
        )
        k = self.keys_per_tenant
        self.live = list(range(n))
        self.keys_of = {t: list(range(t * k, (t + 1) * k)) for t in self.live}
        self.owner = {key: t for t, keys in self.keys_of.items() for key in keys}
        self.next_tenant = n
        self.requester_rank = Zipf(list(range(n)), self.zipf_skew, self.seed)

    def tick(self, index, arrival, traffic):
        if index and index % self.churn_every == 0:
            t0 = time.perf_counter_ns()
            self.churn()
            traffic.write_ns.append(time.perf_counter_ns() - t0)
            traffic.ops += 1

    def churn(self) -> None:
        """Deprovision one live tenant and provision a fresh one."""
        victim = self.live.pop(self.rng.randrange(len(self.live)))
        self.store.remove_tenant(victim)
        self.served.admission.forget_tenant(victim)
        for key in self.keys_of.pop(victim):
            del self.owner[key]
        tenant = self.next_tenant
        self.next_tenant += 1
        k = self.keys_per_tenant
        keys = list(range(tenant * k, (tenant + 1) * k))
        self.store.add_tenant(tenant, keys)
        self.live.append(tenant)
        self.keys_of[tenant] = keys
        self.owner.update((key, tenant) for key in keys)

    def request(self, index, arrival, traffic):
        rng = self.rng
        requester = self.live[self.requester_rank.draw() % len(self.live)]
        if rng.random() < 0.5:
            owner = self.live[rng.randrange(len(self.live))]
            key = self.keys_of[owner][rng.randrange(self.keys_per_tenant)]
        else:
            key = _ABSENT_BASE + rng.randrange(1 << 30)
        response = self.serve(key, arrival, traffic, tenant=requester)
        owner = self.owner.get(key)
        if response.answer is Answer.ABSENT and owner is not None:
            traffic.violations.append(f"false ABSENT for key {key} of {owner}")
        elif response.answer is Answer.PRESENT and response.value != owner:
            traffic.violations.append(
                f"PRESENT for key {key} with tenant {response.value!r}, "
                f"owner {owner!r}"
            )

    def final_violations(self):
        return self.store.router.check_invariants()

    def space_amp(self) -> float:
        """Filter bytes (summary trees plus authoritative filters) per
        live user byte: the tenant stack keeps no device."""
        return (self.store.router.size_in_bits / 8) / (
            self.live_keys() * _ENTRY_BYTES
        )

    def live_keys(self) -> int:
        return len(self.owner)


WORKLOADS = {w.name: w for w in (ReadZipf, WriteSplit, ReplicaHeal, TenantChurn)}
