"""Tests for quotient-filter merging and the out-of-RAM counter."""

from __future__ import annotations

import pytest

from repro.apps.external_counter import ExternalQuotientCounter
from repro.filters.quotient import QuotientFilter
from repro.workloads.synthetic import disjoint_key_sets


class TestSortedIteration:
    def test_globally_sorted(self):
        qf = QuotientFilter(7, 8, seed=1)
        for i in range(100):
            qf.insert(i)
        fps = list(qf.iter_fingerprints_sorted())
        assert fps == sorted(fps)
        assert len(fps) == 100

    def test_sorted_with_wraparound_stretch(self):
        qf = QuotientFilter(4, 4, seed=0)
        top = qf.n_slots - 1
        for r in range(4):  # run at the last slot wraps past the end
            qf._insert_fingerprint((top << 4) | r)
        qf._insert_fingerprint((1 << 4) | 2)
        fps = list(qf.iter_fingerprints_sorted())
        assert fps == sorted(fps)


class TestMerge:
    def test_merge_preserves_membership(self):
        members, negatives = disjoint_key_sets(600, 4000, seed=2)
        parts = [members[0::3], members[1::3], members[2::3]]
        filters = []
        for part in parts:
            qf = QuotientFilter(10, 10, seed=3)
            for key in part:
                qf.insert(key)
            filters.append(qf)
        merged = QuotientFilter.merge(filters)
        assert len(merged) == 600
        assert all(merged.may_contain(k) for k in members)
        fpr = sum(merged.may_contain(k) for k in negatives) / len(negatives)
        assert fpr < 0.01

    def test_merge_grows_table_when_needed(self):
        filters = []
        for i in range(4):
            qf = QuotientFilter(6, 10, seed=4)  # capacity 57 each
            for j in range(50):
                qf.insert(i * 1000 + j)
            filters.append(qf)
        merged = QuotientFilter.merge(filters)
        assert merged.quotient_bits > 6
        assert len(merged) == 200
        for i in range(4):
            assert all(merged.may_contain(i * 1000 + j) for j in range(50))

    def test_merge_is_multiset_union(self):
        a = QuotientFilter(6, 8, seed=5)
        b = QuotientFilter(6, 8, seed=5)
        a.insert("dup")
        b.insert("dup")
        merged = QuotientFilter.merge([a, b])
        merged.delete("dup")
        assert merged.may_contain("dup")  # second copy remains

    def test_merge_rejects_mismatched(self):
        a = QuotientFilter(6, 8, seed=1)
        b = QuotientFilter(6, 8, seed=2)
        with pytest.raises(ValueError, match="geometry"):
            QuotientFilter.merge([a, b])
        with pytest.raises(ValueError, match="at least one"):
            QuotientFilter.merge([])

    def test_merge_exhausted_fingerprints(self):
        filters = []
        for i in range(8):
            qf = QuotientFilter(4, 2, seed=6)
            for j in range(qf.capacity):
                qf.insert(i * 100 + j)
            filters.append(qf)
        with pytest.raises(ValueError, match="fingerprint bits"):
            QuotientFilter.merge(filters)


class TestExternalCounter:
    def test_spills_and_merges(self):
        counter = ExternalQuotientCounter(64, 0.001, seed=7)
        members, negatives = disjoint_key_sets(500, 3000, seed=8)
        for key in members:
            counter.add(key)
        # Shard tables round up to powers of two (~115 keys each): 500 keys
        # must spill several times — well beyond one shard of "RAM".
        assert counter.n_spilled_shards >= 4
        merged = counter.finalize()
        assert all(merged.may_contain(k) for k in members)
        fpr = sum(merged.may_contain(k) for k in negatives) / len(negatives)
        assert fpr < 0.01

    def test_sequential_io_accounting(self):
        counter = ExternalQuotientCounter(64, 0.01, seed=9)
        for i in range(500):
            counter.add(i)
        spilled = counter.n_spilled_shards
        writes_after_ingest = counter.device.stats.writes
        assert writes_after_ingest == spilled  # one write per spilled shard
        counter.finalize()
        # The merge reads each spilled run exactly once.
        assert counter.device.stats.reads == spilled
        assert len(counter.device) == 0  # shards reclaimed

    def test_multiset_counts(self):
        counter = ExternalQuotientCounter(32, 0.001, seed=10)
        for _ in range(5):
            counter.add("hot")
        for i in range(100):
            counter.add(i)
        merged = counter.finalize()
        assert counter.count_in(merged, "hot") == 5

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ExternalQuotientCounter(0, 0.01)
