"""Tests for the expandable filters (§2.2)."""

from __future__ import annotations

import pytest

from repro.core.errors import DeletionError, FilterFullError, NotExpandableError
from repro.expandable.aleph import AlephFilter
from repro.expandable.chaining import ChainedFilter, ScalableBloomFilter
from repro.expandable.infinifilter import InfiniFilter
from repro.expandable.naive import NaiveExpandableQuotientFilter
from repro.expandable.taffy import TaffyCuckooFilter
from tests.conftest import measured_fpr
from repro.workloads.synthetic import disjoint_key_sets


def _grow_through_expansions(filt, n_keys: int) -> list:
    """Insert n_keys with autogrow; returns the inserted keys."""
    members, _ = disjoint_key_sets(n_keys, 1, seed=21)
    for key in members:
        filt.insert_autogrow(key)
    return members


class TestChained:
    def test_grows_and_keeps_members(self):
        cf = ChainedFilter(64, 0.01, seed=1)
        members = _grow_through_expansions(cf, 500)
        assert cf.n_links >= 7
        assert all(cf.may_contain(k) for k in members)

    def test_query_cost_grows_with_links(self):
        cf = ChainedFilter(32, 0.001, seed=1)
        _grow_through_expansions(cf, 400)
        assert cf.query_cost("some-negative-key") == cf.n_links

    def test_capacity_tracks_links(self):
        cf = ChainedFilter(32, 0.01)
        cf.expand()
        assert cf.capacity == 64


class TestScalable:
    def test_fpr_bounded_despite_growth(self):
        sbf = ScalableBloomFilter(128, 0.01, seed=2)
        members, negatives = disjoint_key_sets(4000, 10_000, seed=3)
        for key in members:
            sbf.insert_autogrow(key)
        assert all(sbf.may_contain(k) for k in members)
        assert measured_fpr(sbf, negatives) <= 0.02  # ≤ ε despite 5+ links

    def test_log_many_links(self):
        sbf = ScalableBloomFilter(128, 0.01, seed=2)
        _grow_through_expansions(sbf, 4000)
        assert sbf.n_links <= 7  # geometric growth → log link count


class TestNaiveExpandable:
    def test_expansion_preserves_members(self):
        nf = NaiveExpandableQuotientFilter(7, 8, seed=4)
        members = _grow_through_expansions(nf, 800)
        assert all(nf.may_contain(k) for k in members)
        assert nf.n_expansions >= 2

    def test_fpr_doubles_per_expansion(self):
        nf = NaiveExpandableQuotientFilter(7, 8, seed=4)
        r0 = nf.remainder_bits
        nf.expand()
        nf.expand()
        assert nf.remainder_bits == r0 - 2

    def test_runs_out_of_bits(self):
        nf = NaiveExpandableQuotientFilter(4, 2, seed=4)
        nf.expand()
        with pytest.raises(NotExpandableError):
            nf.expand()

    def test_deletes_supported(self):
        nf = NaiveExpandableQuotientFilter(6, 8, seed=5)
        nf.insert("x")
        nf.expand()
        nf.delete("x")
        assert not nf.may_contain("x")


class TestTaffy:
    def test_expansion_preserves_members(self):
        tf = TaffyCuckooFilter(4, 10, seed=6)
        members = _grow_through_expansions(tf, 1000)
        assert tf.n_expansions >= 3
        assert all(tf.may_contain(k) for k in members)

    def test_fpr_stays_stable(self):
        members, negatives = disjoint_key_sets(4000, 10_000, seed=7)
        tf = TaffyCuckooFilter(4, 12, seed=8)
        before = None
        for i, key in enumerate(members):
            tf.insert_autogrow(key)
            if i == 200:
                before = measured_fpr(tf, negatives[:3000])
        after = measured_fpr(tf, negatives[:3000])
        # Stable: within a small constant factor despite many doublings
        # (the naive filter would have degraded by 2^expansions).
        assert after <= max(4 * (before + 1e-4), 0.02)

    def test_no_deletes(self):
        tf = TaffyCuckooFilter(4, 10)
        tf.insert("x")
        with pytest.raises(NotImplementedError):
            tf.delete("x")

    def test_universe_bound(self):
        tf = TaffyCuckooFilter(2, 2, seed=9)
        tf.insert("a")
        tf.expand()
        tf.expand()
        with pytest.raises(NotExpandableError):
            tf.expand()


class TestInfiniFilter:
    def test_expansion_preserves_members_and_deletes(self):
        inf = InfiniFilter(4, 8, seed=10)
        members = _grow_through_expansions(inf, 1200)
        assert all(inf.may_contain(k) for k in members)
        inf.delete(members[0])
        inf.delete(members[-1])

    def test_unbounded_expansion_via_voids(self):
        inf = InfiniFilter(3, 2, seed=11)
        for _ in range(40):
            pass
        members = _grow_through_expansions(inf, 300)
        # Fingerprint budget (2 bits) long exhausted: voids must exist.
        assert inf.n_expansions > 2
        assert inf.n_void_entries > 0
        assert all(inf.may_contain(k) for k in members)

    def test_query_cost_grows_past_budget(self):
        inf = InfiniFilter(3, 2, seed=12)
        _grow_through_expansions(inf, 400)
        assert inf.query_cost("whatever") > 1

    def test_delete_unknown_raises(self):
        inf = InfiniFilter(4, 8, seed=13)
        inf.insert("a")
        with pytest.raises(DeletionError):
            inf.delete("definitely-not-there")


class TestAleph:
    def test_expansion_preserves_members(self):
        al = AlephFilter(3, 4, seed=14)
        members = _grow_through_expansions(al, 400)
        assert al.n_expansions > 2
        assert all(al.may_contain(k) for k in members)

    def test_query_cost_constant(self):
        al = AlephFilter(3, 4, seed=15)
        _grow_through_expansions(al, 400)
        assert al.query_cost("anything") == 1

    def test_void_fraction_bounded(self):
        # With a realistic fingerprint budget (8 bits) voids never appear
        # over ~6 doublings, so the void fraction stays negligible.
        al = AlephFilter(3, 8, seed=16)
        _grow_through_expansions(al, 2000)
        assert al.n_void_entries / len(al) < 0.05

    def test_deletes(self):
        al = AlephFilter(4, 8, seed=17)
        al.insert("x")
        al.expand()
        al.delete("x")
        assert not al.may_contain("x")


class TestFullSignalling:
    def test_insert_raises_when_full_without_autogrow(self):
        tf = TaffyCuckooFilter(2, 10, seed=18)
        with pytest.raises(FilterFullError):
            for i in range(1000):
                tf.insert(i)
