"""Tests for the counting filters (§2.6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DeletionError, FilterFullError
from repro.counting.counting_bloom import CountingBloomFilter
from repro.counting.cqf import CountingQuotientFilter
from repro.counting.dleft import DLeftCountingFilter
from repro.counting.spectral import SpectralBloomFilter
from repro.workloads.synthetic import zipf_multiset

# The CBF uses 8-bit counters here: the *common* contract (counts never
# under-count) only holds while no counter saturates, and the Zipf workload
# below exceeds 4-bit counters by design (that failure mode has its own
# dedicated tests in TestCountingBloomSpecifics).
ALL_COUNTING = [
    lambda: CountingBloomFilter(600, 0.01, counter_bits=8, seed=3),
    lambda: DLeftCountingFilter.for_capacity(600, 0.01, seed=3),
    lambda: SpectralBloomFilter(600, 0.01, seed=3),
    lambda: CountingQuotientFilter.for_capacity(600, 0.01, seed=3),
]


@pytest.fixture(params=ALL_COUNTING, ids=["cbf", "dleft", "spectral", "cqf"])
def counting_filter(request):
    return request.param()


class TestCommonCountingBehaviour:
    def test_counts_never_undercount(self, counting_filter):
        multiset = zipf_multiset(200, 500, skew=1.0, seed=5)
        for key, mult in multiset.items():
            for _ in range(mult):
                counting_filter.insert(key)
        for key, mult in multiset.items():
            assert counting_filter.count(key) >= mult

    def test_absent_keys_mostly_zero(self, counting_filter):
        for key in range(300):
            counting_filter.insert(key)
        wrong = sum(1 for key in range(10_000, 12_000) if counting_filter.count(key))
        assert wrong / 2000 <= 0.05

    def test_delete_decrements(self, counting_filter):
        for _ in range(3):
            counting_filter.insert("k")
        counting_filter.delete("k")
        assert counting_filter.count("k") >= 2
        counting_filter.delete("k")
        counting_filter.delete("k")
        assert counting_filter.count("k") == 0

    def test_delete_unknown_raises(self, counting_filter):
        counting_filter.insert("present")
        with pytest.raises(DeletionError):
            counting_filter.delete("definitely-absent-key-xyzzy")

    def test_may_contain_via_count(self, counting_filter):
        counting_filter.insert("a")
        assert counting_filter.may_contain("a")


class TestCountingBloomSpecifics:
    def test_saturation_detected(self):
        cbf = CountingBloomFilter(100, 0.01, counter_bits=2, seed=1)
        for _ in range(10):
            cbf.insert("hot")
        assert cbf.saturation_events > 0

    def test_saturation_undercounts_after_deletes(self):
        # The §2.6 failure: saturate at 15 (4-bit), insert 20, delete 20 →
        # counters go negative-ish / other keys can be corrupted.  At
        # minimum the count for the hot key is wrong after partial deletes.
        cbf = CountingBloomFilter(100, 0.01, counter_bits=4, seed=1)
        for _ in range(20):
            cbf.insert("hot")
        for _ in range(5):
            cbf.delete("hot")
        # True remaining count is 15, but counters maxed at 15 then lost
        # increments, so the estimate under-counts.
        assert cbf.count("hot") < 15

    def test_rebuild_restores_guarantee(self):
        cbf = CountingBloomFilter(100, 0.01, counter_bits=2, seed=1)
        multiset = {f"k{i}": (i % 7) + 1 for i in range(50)}
        for key, mult in multiset.items():
            for _ in range(mult):
                cbf.insert(key)
        rebuilt = cbf.rebuild_with_wider_counters(multiset)
        assert rebuilt.counter_bits == 4
        for key, mult in multiset.items():
            assert rebuilt.count(key) >= mult

    def test_size_in_bits(self):
        cbf = CountingBloomFilter(100, 0.01, counter_bits=4)
        assert cbf.size_in_bits == cbf._m * 4


class TestDLeftSpecifics:
    def test_space_beats_cbf(self):
        # The tutorial: d-left saves "a factor of two or more" vs CBF.
        cbf = CountingBloomFilter(1000, 0.01)
        dlcf = DLeftCountingFilter.for_capacity(1000, 0.01)
        assert dlcf.size_in_bits < cbf.size_in_bits

    def test_not_resizable_overflow_raises(self):
        dlcf = DLeftCountingFilter(1, 12, d=2, bucket_cells=2, seed=1)
        with pytest.raises(FilterFullError):
            for i in range(100):
                dlcf.insert(i)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DLeftCountingFilter(0, 8)
        with pytest.raises(ValueError):
            DLeftCountingFilter(8, 8, d=1)


class TestSpectralSpecifics:
    def test_skewed_input_space_savings(self):
        # Variable-length counters: a Zipfian multiset costs much less than
        # total-insertions × counter-width.
        sbf = SpectralBloomFilter(2000, 0.01, seed=2)
        multiset = zipf_multiset(1000, 20_000, skew=1.2, seed=9)
        for key, mult in multiset.items():
            for _ in range(mult):
                sbf.insert(key)
        fixed_cost = CountingBloomFilter(2000, 0.01, counter_bits=16).size_in_bits
        assert sbf.size_in_bits < fixed_cost

    def test_minimal_increase_reduces_counts(self):
        plain = SpectralBloomFilter(100, 0.2, seed=3)
        mi = SpectralBloomFilter(100, 0.2, seed=3, minimal_increase=True)
        for i in range(100):
            plain.insert(i % 20)
            mi.insert(i % 20)
        plain_total = sum(plain.count(k) for k in range(20))
        mi_total = sum(mi.count(k) for k in range(20))
        assert mi_total <= plain_total

    def test_minimal_increase_blocks_deletes(self):
        mi = SpectralBloomFilter(100, 0.01, minimal_increase=True)
        mi.insert("a")
        with pytest.raises(DeletionError):
            mi.delete("a")


class TestCQFSpecifics:
    def test_skewed_multiset_uses_few_slots(self):
        cqf = CountingQuotientFilter.for_capacity(1000, 0.01, seed=4)
        for _ in range(100_000 // 100):
            pass
        # one hot key inserted a huge number of times costs O(log c) slots
        for _ in range(5000):
            cqf.insert("hot")
        assert cqf.slots_used <= 4
        assert cqf.count("hot") == 5000

    def test_slots_freed_on_delete(self):
        cqf = CountingQuotientFilter.for_capacity(100, 0.01, seed=4)
        for _ in range(300):
            cqf.insert("k")
        used = cqf.slots_used
        for _ in range(299):
            cqf.delete("k")
        assert cqf.slots_used < used
        assert cqf.count("k") == 1
        cqf.delete("k")
        assert cqf.count("k") == 0
        assert cqf.slots_used == 0

    def test_full_raises(self):
        cqf = CountingQuotientFilter(4, 8, seed=1)
        with pytest.raises(FilterFullError):
            for i in range(100):
                cqf.insert(i)

    def test_exact_counts_when_no_collisions(self):
        cqf = CountingQuotientFilter.for_capacity(500, 2**-12, seed=5)
        multiset = zipf_multiset(300, 2000, skew=1.0, seed=6)
        for key, mult in multiset.items():
            for _ in range(mult):
                cqf.insert(key)
        exact = sum(cqf.count(k) == m for k, m in multiset.items())
        assert exact >= 0.99 * len(multiset)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_matches_multiset_model_lower_bound(self, inserts):
        cqf = CountingQuotientFilter(7, 10, seed=7)
        model: dict[int, int] = {}
        for key in inserts:
            cqf.insert(key)
            model[key] = model.get(key, 0) + 1
        for key, mult in model.items():
            assert cqf.count(key) >= mult
        assert len(cqf) == len(inserts)
