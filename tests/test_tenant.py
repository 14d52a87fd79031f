"""Multi-tenant Bloofi fleet: tree maintenance, router, quota, storms.

The contract under test (docs/robustness.md):

* the Bloofi tree never produces a false ABSENT — a key inserted for a
  live tenant is always in that tenant's candidate set, through splits,
  merges, lazy removals, re-ORs, and injected degradation;
* interior ORs stay supersets of their descendant leaves at all times
  (equality right after a full re-OR);
* cached aggregate properties (tree size/height, the stacked node
  words, the router's ``supports_deletes``) are recomputed on child
  membership change — the ``ShardedFilter.supports_deletes`` lesson
  applied to the tree — and the stacked words also on insert and re-OR;
* the descent visits nodes, and calls its fault and probe hooks, in the
  same order as the per-node reference walk below, so seeded storms
  draw the same fault and latency streams;
* per-tenant quota buckets shed only the noisy tenant, with reason
  ``"tenant_quota"``;
* the storm harness (serve-sim ``--tenants``) holds zero false
  negatives and bounded shed through mid-storm tenant churn.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.clock import SimulatedClock
from repro.common.faults import FaultInjector
from repro.core.bloofi import BloofiConfig, BloofiLookup, BloofiTree
from repro.core.interfaces import DynamicFilter
from repro.obs import use_registry
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Priority,
    ServeOutcome,
    TenantConfig,
    TenantQuota,
    TenantRouter,
    TenantStore,
    run_tenant_storm,
)

CHAOS_SEEDS = [int(os.environ.get("REPRO_CHAOS_SEED", "0")) + i for i in range(3)]

SMALL_TREE = BloofiConfig(
    leaf_capacity=32, epsilon=0.05, seed=5, max_fanout=4, reor_interval=1000,
)


def _loaded_tree(n_tenants: int, keys_per_tenant: int = 6, *, config=SMALL_TREE):
    tree = BloofiTree(config)
    truth = {}
    for t in range(n_tenants):
        tree.add_tenant(t)
        keys = [t * 1000 + i for i in range(keys_per_tenant)]
        tree.insert_many(t, keys)
        truth[t] = keys
    return tree, truth


def reference_candidates(tree, key, *, fault=None, on_probe=None) -> BloofiLookup:
    """Reference descent: one word gather per visited node, read straight
    from the node's own words, in the tree's fixed LIFO DFS order.

    ``BloofiTree.candidates`` must return the same :class:`BloofiLookup`
    and call *fault* and *on_probe* with the same ``(kind, depth)``
    sequence; any difference would shift a seeded storm's fault and
    latency draws.
    """
    result = BloofiLookup()
    if not len(tree):
        return result
    widx, masks = tree._probe_arrays(key)
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        if fault is not None and fault("leaf" if node.is_leaf else "node", depth):
            if node.is_leaf:
                result.tenants.append(node.tenant)
                result.degraded_leaves.append(node.tenant)
            else:
                result.degraded_descents += 1
                stack.extend((c, depth + 1) for c in node.children)
            continue
        result.probes += 1
        result.probes_by_level[depth] = result.probes_by_level.get(depth, 0) + 1
        if on_probe is not None:
            on_probe(depth)
        if not ((node.words[widx] & masks) == masks).all():
            continue
        if node.is_leaf:
            result.tenants.append(node.tenant)
        else:
            stack.extend((c, depth + 1) for c in node.children)
    return result


def _recorded_descent(descend, tree, key, fault_seed: int, fault_rate: float):
    """Run *descend* with a seeded fault callback; return the lookup and
    the interleaved ``fault``/``on_probe`` call sequence."""
    rng = random.Random(fault_seed)
    calls = []

    def fault(kind, depth):
        calls.append((kind, depth))
        return rng.random() < fault_rate

    look = descend(tree, key, fault=fault,
                   on_probe=lambda depth: calls.append(("probe", depth)))
    return look, calls


def assert_descent_matches_reference(tree, key, fault_seed=0, fault_rate=0.0):
    clean = tree.candidates(key)
    assert clean == reference_candidates(tree, key)
    got = _recorded_descent(BloofiTree.candidates, tree, key, fault_seed, fault_rate)
    want = _recorded_descent(reference_candidates, tree, key, fault_seed, fault_rate)
    assert got == want


TENANT_IDS = st.integers(min_value=0, max_value=10**6)
TREE_KEYS = st.integers(min_value=0, max_value=2_000)
TREE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(TREE_KEYS, max_size=6)),
        st.tuples(st.just("remove"), TENANT_IDS),
        st.tuples(st.just("insert"), TENANT_IDS, TREE_KEYS),
        st.tuples(st.just("insert_many"), TENANT_IDS, st.lists(TREE_KEYS, max_size=6)),
        st.tuples(st.just("reor")),
        st.tuples(
            st.just("query"), st.booleans(), TREE_KEYS, st.integers(0, 2**16),
            st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        ),
    ),
    max_size=60,
)


class TestDescentOrder:
    """The stacked-word descent against the per-node reference walk."""

    @given(n_start=st.integers(0, 40), ops=TREE_OPS)
    def test_candidates_match_reference_walk(self, n_start, ops):
        tree, truth = _loaded_tree(n_start, 3, config=BloofiConfig(
            leaf_capacity=32, epsilon=0.05, seed=5, max_fanout=4,
            reor_interval=5,
        ))
        next_tenant = n_start
        for op, *args in ops:
            live = sorted(truth)
            if op == "add":
                tree.add_tenant(next_tenant)
                tree.insert_many(next_tenant, args[0])
                truth[next_tenant] = list(args[0])
                next_tenant += 1
            elif op == "reor":
                tree.reor()
            elif op == "query":
                held, key, fault_seed, rate = args
                held_keys = sorted(k for keys in truth.values() for k in keys)
                if held and held_keys:      # a held key descends deepest
                    key = held_keys[key % len(held_keys)]
                assert_descent_matches_reference(tree, key, fault_seed, rate)
            elif live:
                tenant = live[args[0] % len(live)]
                if op == "remove":
                    tree.remove_tenant(tenant)
                    del truth[tenant]
                elif op == "insert":
                    tree.insert(tenant, args[1])
                    truth[tenant].append(args[1])
                else:
                    tree.insert_many(tenant, args[1])
                    truth[tenant].extend(args[1])
            for tenant, keys in truth.items():
                for key in keys:
                    assert tenant in tree.candidates(key).tenants


class TestBloofiTree:
    def test_no_false_negatives_and_invariants(self):
        tree, truth = _loaded_tree(120)
        assert tree.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in tree.candidates(key).tenants

    def test_probe_count_is_logarithmic_not_linear(self):
        tree, truth = _loaded_tree(256)
        rng = random.Random(1)
        probes = []
        for _ in range(50):
            t = rng.randrange(256)
            key = truth[t][0]
            probes.append(tree.candidates(key).probes)
        # A flat scan costs 256 probes; the descent should cost a small
        # multiple of fanout * height, far below the fleet size.
        assert max(probes) < 256 * 0.4
        assert tree.height >= 2

    def test_split_grows_and_collapse_shrinks_height(self):
        tree = BloofiTree(SMALL_TREE)
        for t in range(30):
            tree.add_tenant(t)
        assert tree.height >= 1
        grown = tree.height
        for t in range(28):
            tree.remove_tenant(t)
        assert tree.height <= grown
        assert tree.check_invariants() == []

    def test_lazy_removal_is_superset_until_reor(self):
        tree, truth = _loaded_tree(64)
        for t in range(48):
            tree.remove_tenant(t)
            del truth[t]
        # Lazy removal leaves dead tenants' bits in the interior ORs —
        # a safe superset, measurable as staleness, never an invariant
        # failure and never a lost key.
        assert tree.stale_fraction() > 0.0
        assert tree.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in tree.candidates(key).tenants
        cleared = tree.reor()
        assert cleared > 0
        assert tree.stale_fraction() == 0.0
        assert tree.check_invariants() == []
        for tenant, keys in truth.items():
            for key in keys:
                assert tenant in tree.candidates(key).tenants

    def test_reor_runs_automatically_on_removal_pressure(self):
        config = BloofiConfig(
            leaf_capacity=32, epsilon=0.05, seed=5, max_fanout=4,
            reor_interval=8,
        )
        tree, truth = _loaded_tree(40, config=config)
        for t in range(30):
            tree.remove_tenant(t)
        assert tree.reor_runs >= 3
        assert tree.check_invariants() == []

    def test_degraded_interior_node_descends_everything(self):
        tree, truth = _loaded_tree(64)
        key = truth[17][0]
        clean = tree.candidates(key)
        stormy = tree.candidates(key, fault=lambda kind, depth: kind == "node")
        # Degradation must widen, never narrow: every clean candidate
        # survives, and the descent records it could not prune.
        assert set(clean.tenants) <= set(stormy.tenants)
        assert 17 in stormy.tenants
        assert stormy.degraded_descents > 0

    def test_degraded_leaf_is_a_forced_candidate(self):
        tree, truth = _loaded_tree(32)
        look = tree.candidates(truth[3][0], fault=lambda kind, depth: True)
        assert sorted(look.tenants) == sorted(tree.tenant_ids())
        assert sorted(look.degraded_leaves) == sorted(tree.tenant_ids())

    def test_geometry_mismatch_rejected(self):
        from repro.filters.bloom import BloomFilter

        tree = BloofiTree(SMALL_TREE)
        with pytest.raises(ValueError, match="geometry"):
            tree.add_tenant("odd", BloomFilter(512, 0.001, seed=99))

    def test_membership_errors(self):
        tree = BloofiTree(SMALL_TREE)
        tree.add_tenant("a")
        with pytest.raises(ValueError):
            tree.add_tenant("a")
        with pytest.raises(KeyError):
            tree.remove_tenant("b")
        with pytest.raises(KeyError):
            tree.insert("b", 1)
        assert tree.candidates(1).tenants == []


class TestCachedAggregates:
    """Satellite fix: cached aggregates must be recomputed on child
    membership change — no stale answers across splits and merges."""

    @staticmethod
    def _fresh(tree, name):
        tree._agg_cache.clear()
        return getattr(tree, name)

    def test_size_and_height_track_membership_churn(self):
        tree = BloofiTree(SMALL_TREE)
        rng = random.Random(9)
        live = []
        next_id = 0
        for step in range(300):
            cached_size, cached_height = tree.size_in_bits, tree.height
            assert cached_size == self._fresh(tree, "size_in_bits")
            assert cached_height == self._fresh(tree, "height")
            if live and rng.random() < 0.4:
                t = live.pop(rng.randrange(len(live)))
                tree.remove_tenant(t)
            else:
                tree.add_tenant(next_id)
                tree.insert(next_id, next_id)
                live.append(next_id)
                next_id += 1
            # The mutation just above must have invalidated the cache:
            # a membership change that kept serving the old aggregate is
            # exactly the ShardedFilter.supports_deletes bug shape.
            assert tree.size_in_bits == self._fresh(tree, "size_in_bits")
            assert tree.height == self._fresh(tree, "height")

    def test_size_in_bits_regression_add_after_read(self):
        """Regression shape: read the cached aggregate, then change
        membership, then read again — the second read must see the new
        fleet, not the memo."""
        tree = BloofiTree(SMALL_TREE)
        for t in range(10):
            tree.add_tenant(t)
        before = tree.size_in_bits
        tree.add_tenant("late")
        assert tree.size_in_bits > before
        tree.remove_tenant("late")
        assert tree.size_in_bits == before


class TestStackedNodeWords:
    """The descent reads a cached copy of every node's words; each way
    of changing those words must drop the copy.  A stale copy misses the
    new bits, which is a false ABSENT."""

    FRESH_KEY = 987_654_321

    def _cached_tree(self, n_tenants=40):
        tree, truth = _loaded_tree(n_tenants)
        tree.candidates(self.FRESH_KEY)          # stacks and caches the words
        return tree, truth

    def test_insert_reaches_the_descent(self):
        tree, _ = self._cached_tree()
        tree.insert(7, self.FRESH_KEY)
        assert 7 in tree.candidates(self.FRESH_KEY).tenants
        assert_descent_matches_reference(tree, self.FRESH_KEY)

    def test_insert_many_reaches_the_descent(self):
        tree, _ = self._cached_tree()
        tree.insert_many(11, [self.FRESH_KEY, self.FRESH_KEY + 1])
        for key in (self.FRESH_KEY, self.FRESH_KEY + 1):
            assert 11 in tree.candidates(key).tenants
            assert_descent_matches_reference(tree, key)

    def test_reor_reaches_the_descent(self):
        tree, truth = self._cached_tree(64)
        for t in range(40):
            tree.remove_tenant(t)
            del truth[t]
        probe_keys = [t * 1000 + i for t in range(40) for i in range(6)]
        for key in probe_keys:
            tree.candidates(key)
        assert tree.reor() > 0
        # The re-OR cleared stale bits: a cached copy would keep the old
        # descents, the reference walk would not.
        for key in probe_keys:
            assert_descent_matches_reference(tree, key)

    def test_split_and_merge_reach_the_descent(self):
        tree = BloofiTree(SMALL_TREE)
        tree.add_tenant(0)
        tree.candidates(self.FRESH_KEY)
        for t in range(1, 40):                  # splits grow the root
            preloaded = tree.make_leaf_filter()
            preloaded.insert(self.FRESH_KEY + t)
            tree.add_tenant(t, preloaded)
            assert t in tree.candidates(self.FRESH_KEY + t).tenants
        assert tree.height >= 2
        for t in range(1, 36):                  # merges shrink it again
            tree.remove_tenant(t)
            for survivor in range(36, 40):
                key = self.FRESH_KEY + survivor
                assert survivor in tree.candidates(key).tenants
                assert_descent_matches_reference(tree, key, fault_seed=t,
                                                 fault_rate=0.3)
        assert tree.check_invariants() == []


class _ShrinkingAuth(DynamicFilter):
    """Authoritative filter that loses delete support as it grows —
    the same shape as test_differential._ShrinkingShard."""

    supports_deletes = True

    def __init__(self, capacity: int = 4):
        self.capacity = capacity
        self._keys: set = set()

    def insert(self, key):
        self._keys.add(key)
        if len(self._keys) > self.capacity:
            self.supports_deletes = False

    def may_contain(self, key):
        return key in self._keys

    def delete(self, key):
        assert self.supports_deletes
        self._keys.discard(key)

    def __len__(self):
        return len(self._keys)

    @property
    def size_in_bits(self):
        return 64 * len(self._keys)


class TestRouterSupportsDeletes:
    def test_recomputed_from_live_fleet(self):
        router = TenantRouter(
            TenantConfig(n_trees=2, leaf_capacity=32, seed=3),
            filter_factory=lambda t: _ShrinkingAuth(capacity=3),
        )
        for t in range(4):
            router.add_tenant(t)
        assert router.supports_deletes
        for key in range(8):  # overflow tenant 0's authoritative filter
            router.insert(0, key)
        assert not router.supports_deletes, (
            "supports_deletes must be recomputed from live tenants"
        )
        # Deprovisioning the degraded tenant restores the capability.
        router.remove_tenant(0)
        assert router.supports_deletes

    def test_empty_fleet_has_no_delete_support(self):
        router = TenantRouter(TenantConfig(n_trees=2, seed=3))
        assert not router.supports_deletes


class TestTenantRouter:
    def test_router_and_flat_agree_everywhere(self):
        router = TenantRouter(TenantConfig(n_trees=3, leaf_capacity=64, seed=11))
        rng = random.Random(11)
        truth = {}
        for t in range(80):
            router.add_tenant(t)
            keys = [rng.randrange(1 << 30) for _ in range(8)]
            router.insert_many(t, keys)
            truth[t] = keys
        probes = (
            [keys[0] for keys in truth.values()]
            + [rng.randrange(1 << 30) for _ in range(200)]
        )
        for key in probes:
            tree_hits = sorted(router.query(key).tenants, key=repr)
            flat_hits = sorted(router.query_flat(key).tenants, key=repr)
            assert tree_hits == flat_hits, f"paths diverge on key {key}"
        assert router.check_invariants() == []

    def test_router_probes_beat_flat(self):
        router = TenantRouter(TenantConfig(n_trees=2, leaf_capacity=64, seed=1))
        for t in range(200):
            router.add_tenant(t)
            router.insert(t, t)
        look = router.query(5)
        flat = router.query_flat(5)
        assert look.probes < flat.probes
        assert flat.probes >= 200

    def test_placement_uses_every_tree(self):
        router = TenantRouter(TenantConfig(n_trees=4, seed=0))
        for t in range(64):
            router.add_tenant(t)
        assert all(len(tree) > 0 for tree in router.trees.values())


class TestLookupFaultRates:
    """``TenantStore.lookup`` resolves tree-read fault rates once per
    lookup; per-tenant scoped rates must still reach each tenant."""

    def test_scoped_rates_resolve_per_string_tenant(self):
        router = TenantRouter(TenantConfig(n_trees=2, seed=3))
        injector = FaultInjector(seed=1, transient_read={
            "tenant_auth@noisy": 1.0, "tenant_node": 1.0, "*": 0.0,
        })
        store = TenantStore(router, SimulatedClock(), injector=injector)
        for t, base in (("noisy", 0), ("quiet", 100), (7, 200)):
            store.add_tenant(t, range(base, base + 4))
        seen = {}
        query = router.query

        def spy(key, *, fault=None):
            seen["fault"] = fault
            return query(key, fault=fault)

        router.query = spy
        store.lookup(0)
        fault = seen["fault"]
        assert fault("auth", "noisy") and not fault("auth", "quiet")
        assert not fault("auth", 7)         # an int id takes the class rate
        assert all(fault("node", depth) for depth in range(4))
        assert not any(fault("leaf", depth) for depth in range(4))


class TestTenantQuota:
    def _admission(self, quota: TenantQuota) -> tuple:
        clock = SimulatedClock()
        admission = AdmissionController(
            clock, AdmissionConfig(tenant_quota=quota)
        )
        return clock, admission

    def test_noisy_tenant_shed_with_quota_reason(self):
        clock, admission = self._admission(TenantQuota(rate=10.0, burst=2.0))
        for _ in range(2):
            decision = admission.admit(clock.now(), Priority.NORMAL, tenant="noisy")
            assert decision.admitted
        decision = admission.admit(clock.now(), Priority.NORMAL, tenant="noisy")
        assert not decision.admitted and decision.reason == "tenant_quota"
        # The quiet tenant's bucket is untouched: isolation, not global
        # throttling.
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="quiet").admitted
        assert admission.stats.shed_by_tenant == {"noisy": 1}

    def test_bucket_refills_with_time(self):
        clock, admission = self._admission(TenantQuota(rate=10.0, burst=1.0))
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        assert not admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        clock.advance(0.2)  # 2 tokens earned, capped at burst=1
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        assert not admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted

    def test_forget_tenant_drops_bucket(self):
        clock, admission = self._admission(TenantQuota(rate=0.001, burst=1.0))
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        assert not admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted
        admission.forget_tenant("t")
        # A re-provisioned tenant starts with a fresh burst allowance.
        assert admission.admit(clock.now(), Priority.NORMAL, tenant="t").admitted

    def test_untenanted_requests_bypass_quota(self):
        clock, admission = self._admission(TenantQuota(rate=0.001, burst=1.0))
        for _ in range(5):
            assert admission.admit(clock.now(), Priority.NORMAL).admitted


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
class TestTenantStorm:
    """Satellite: 3-seed serve-sim smoke — zero false negatives and
    bounded shed through a fault storm, with and without churn."""

    def _run(self, seed: int, churn_every: int):
        with use_registry():
            storm, rep, store = run_tenant_storm(
                seed=seed,
                n_tenants=48,
                churn_every=churn_every,
                quota=TenantQuota(rate=400.0, burst=40.0),
            )
        return storm, rep, store

    def _assert_contract(self, storm, rep):
        assert storm.false_negatives == 0
        assert rep.audit_false_negatives == 0
        assert rep.invariant_failures == 0
        # Shedding is the mechanism, not the steady state: the calm and
        # recovery phases must stay mostly served.
        shed_rate = storm.total(ServeOutcome.SHED) / storm.n_requests
        assert shed_rate <= 0.35
        assert storm.goodput() >= 0.4

    def test_storm_without_churn(self, seed):
        storm, rep, store = self._run(seed, churn_every=0)
        self._assert_contract(storm, rep)
        assert rep.tenants_added == 0 and rep.tenants_removed == 0
        assert rep.n_tenants_final == rep.n_tenants_start

    def test_storm_with_churn(self, seed):
        storm, rep, store = self._run(seed, churn_every=8)
        self._assert_contract(storm, rep)
        # Churn really happened mid-storm, under fire.
        assert rep.tenants_added > 10 and rep.tenants_removed > 10
        # Lazy removals produced staleness and the drain re-OR shed it.
        assert rep.stale_bits_cleared > 0
        assert store.router.stale_fraction() == 0.0
