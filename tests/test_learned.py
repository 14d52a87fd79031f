"""Tests for the query-distribution-aware filters (§2.8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.filters.bloom import BloomFilter
from repro.learned.classifier import LearnedFilter
from repro.learned.stacked import StackedFilter
from repro.workloads.synthetic import disjoint_key_sets


class TestStackedFilter:
    @pytest.fixture(scope="class")
    def setup(self):
        members, negatives = disjoint_key_sets(1000, 5000, seed=51)
        hot = negatives[:500]
        cold = negatives[500:]
        return members, hot, cold

    def test_no_false_negatives(self, setup):
        members, hot, _ = setup
        sf = StackedFilter(members, hot, epsilon=0.05, seed=1)
        assert all(sf.may_contain(k) for k in members)

    def test_hot_negatives_heavily_suppressed(self, setup):
        members, hot, _ = setup
        plain = BloomFilter(len(members), 0.05, seed=1)
        for key in members:
            plain.insert(key)
        sf = StackedFilter(members, hot, epsilon=0.05, seed=1)
        fp_plain = sum(1 for k in hot if plain.may_contain(k))
        fp_stacked = sum(1 for k in hot if sf.may_contain(k))
        assert fp_stacked < max(1, fp_plain)

    def test_cold_negatives_unharmed(self, setup):
        members, hot, cold = setup
        sf = StackedFilter(members, hot, epsilon=0.05, seed=1)
        fp_cold = sum(1 for k in cold if sf.may_contain(k))
        assert fp_cold / len(cold) < 0.1

    def test_rejects_member_in_negatives(self, setup):
        members, hot, _ = setup
        with pytest.raises(ValueError):
            StackedFilter(members, [members[0]], seed=1)

    def test_empty_hot_list(self, setup):
        members, _, cold = setup
        sf = StackedFilter(members, [], epsilon=0.05, seed=1)
        assert all(sf.may_contain(k) for k in members)

    def test_deeper_stacks_decrease_hot_fpr(self, setup):
        """§2.8: the hierarchy 'exponentially decreases' the FPR on the
        frequently queried non-keys as layers are added."""
        members, hot, _ = setup
        rates = []
        for depth in (1, 3, 5):
            sf = StackedFilter(
                members, hot, epsilon=0.1, negative_epsilon=0.1,
                n_layers=depth, seed=3,
            )
            assert all(sf.may_contain(k) for k in members)  # never a FN
            rates.append(sum(sf.may_contain(k) for k in hot) / len(hot))
        assert rates[0] > rates[1] >= rates[2]
        assert rates[2] <= rates[0] * 0.25

    def test_even_layer_count_rejected(self, setup):
        members, hot, _ = setup
        with pytest.raises(ValueError):
            StackedFilter(members, hot, n_layers=2)


class TestLearnedFilter:
    UNIVERSE = 1 << 32

    def _clustered_keys(self, n, seed):
        """Keys concentrated in a few dense clusters (the learnable case)."""
        rng = np.random.default_rng(seed)
        centers = rng.integers(0, self.UNIVERSE, size=8)
        keys = set()
        while len(keys) < n:
            center = int(centers[int(rng.integers(8))])
            keys.add(int(min(self.UNIVERSE - 1, max(0, center + rng.integers(-500, 500)))))
        return sorted(keys)

    def test_no_false_negatives(self):
        keys = self._clustered_keys(2000, seed=2)
        lf = LearnedFilter(keys, universe=self.UNIVERSE, seed=3)
        assert all(lf.may_contain(k) for k in keys)

    def test_clustered_keys_learned(self):
        keys = self._clustered_keys(2000, seed=2)
        negatives = list(np.random.default_rng(5).integers(0, self.UNIVERSE, 3000))
        negatives = [int(k) for k in negatives if k not in set(keys)]
        lf = LearnedFilter(
            keys, universe=self.UNIVERSE, sample_negatives=negatives[:1000], seed=3
        )
        assert lf.model_coverage > 0.5
        fps = sum(1 for k in negatives[1000:] if lf.may_contain(k))
        assert fps / len(negatives[1000:]) < 0.05

    def test_space_beats_bloom_on_clustered(self):
        keys = self._clustered_keys(4000, seed=6)
        lf = LearnedFilter(keys, universe=self.UNIVERSE, epsilon=0.01, seed=3)
        bloom = BloomFilter(len(keys), 0.01, seed=3)
        assert lf.size_in_bits < bloom.capacity * bloom.size_in_bits / len(keys) * 1.0
        assert lf.size_in_bits < bloom.size_in_bits

    def test_uniform_keys_degrade_gracefully(self):
        members, negatives = disjoint_key_sets(2000, 3000, seed=7)
        universe = 1 << 48
        lf = LearnedFilter(members, universe=universe, seed=8)
        assert all(lf.may_contain(k) for k in members)
        fps = sum(1 for k in negatives if lf.may_contain(k))
        assert fps / len(negatives) < 0.05

    def test_out_of_universe_query_false(self):
        lf = LearnedFilter([1, 2], universe=100, seed=9)
        assert not lf.may_contain(1000)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LearnedFilter([200], universe=100)
        with pytest.raises(ValueError):
            LearnedFilter([1], universe=100, threshold=0.0)
