"""Tests for the computational-biology applications (§3.2)."""

from __future__ import annotations

import pytest

from repro.apps.debruijn import (
    CascadingBloomDeBruijn,
    FilterBackedDeBruijn,
    neighbours,
)
from repro.apps.kmers import KmerCounter
from repro.apps.mantis import MantisIndex
from repro.apps.sbt import SequenceBloomTree
from repro.workloads.dna import (
    extract_kmers,
    int_to_kmer,
    kmer_to_int,
    random_genome,
    sequencing_experiments,
    sequencing_reads,
)

K = 11


@pytest.fixture(scope="module")
def genome():
    return random_genome(4000, seed=71)


@pytest.fixture(scope="module")
def kmer_set(genome):
    return set(extract_kmers(genome, K))


class TestDnaWorkloads:
    def test_kmer_int_round_trip(self):
        kmer = "ACGTACGTA"
        assert int_to_kmer(kmer_to_int(kmer), len(kmer)) == kmer

    def test_extract_kmers_count(self, genome):
        assert len(extract_kmers(genome, K)) == len(genome) - K + 1

    def test_reads_come_from_genome(self, genome):
        for read in sequencing_reads(genome, 20, 50, seed=1):
            assert read in genome

    def test_experiments_share_core(self):
        exps = sequencing_experiments(4, 2000, K, shared_fraction=0.5, seed=2)
        core = exps[0] & exps[1] & exps[2] & exps[3]
        assert len(core) > 500


class TestKmerCounter:
    def test_approximate_counts_never_undercount(self, genome):
        counter = KmerCounter(K, 8000, exact=False, seed=3)
        counter.add_sequence(genome)
        truth: dict[str, int] = {}
        for kmer in extract_kmers(genome, K):
            truth[kmer] = truth.get(kmer, 0) + 1
        assert all(counter.count(k) >= c for k, c in truth.items())

    def test_exact_mode_is_exact(self, genome):
        counter = KmerCounter(K, 8000, exact=True, seed=3)
        counter.add_sequence(genome)
        truth: dict[str, int] = {}
        for kmer in extract_kmers(genome, K):
            truth[kmer] = truth.get(kmer, 0) + 1
        assert all(counter.count(k) == c for k, c in truth.items())
        absent = "A" * K
        if absent not in truth:
            assert counter.count(absent) == 0

    def test_reads_interface(self, genome):
        counter = KmerCounter(K, 20000, seed=4)
        reads = sequencing_reads(genome, 50, 100, seed=5)
        added = counter.add_reads(reads)
        assert added == 50 * (100 - K + 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KmerCounter(0, 100)
        with pytest.raises(ValueError):
            KmerCounter(40, 100)


class TestDeBruijn:
    def test_neighbours_shape(self):
        n = neighbours("ACGT")
        assert len(n) == 8
        assert all(len(x) == 4 for x in n)

    def test_true_kmers_present(self, kmer_set):
        graph = FilterBackedDeBruijn(kmer_set, epsilon=0.05, seed=6)
        assert all(graph.contains(k) for k in list(kmer_set)[:300])

    def test_critical_fps_few(self, kmer_set):
        graph = FilterBackedDeBruijn(kmer_set, epsilon=0.05, seed=6)
        # Pell et al.: at reasonable ε the graph structure barely changes;
        # critical FPs are a small fraction of true k-mers.
        assert graph.critical_fraction < 0.5

    def test_exactness_of_navigation(self, kmer_set):
        graph = FilterBackedDeBruijn(kmer_set, epsilon=0.05, seed=6)
        # Every neighbour reported from a true k-mer must be a true k-mer.
        for kmer in list(kmer_set)[:200]:
            for succ in graph.successors(kmer):
                assert succ in kmer_set

    def test_walk_follows_genome(self, genome, kmer_set):
        graph = FilterBackedDeBruijn(kmer_set, epsilon=0.05, seed=6)
        start = genome[:K]
        path = graph.walk(start, max_steps=50)
        assert len(path) > 1
        assert all(p in kmer_set for p in path)

    def test_cascading_matches_exact(self, kmer_set):
        exact = FilterBackedDeBruijn(kmer_set, epsilon=0.05, seed=7)
        cascade = CascadingBloomDeBruijn(kmer_set, epsilon=0.05, seed=7)
        probe = list(kmer_set)[:200]
        for kmer in probe:
            assert cascade.contains(kmer) == exact.contains(kmer)

    def test_cascade_smaller_than_exact_table(self, kmer_set):
        exact = FilterBackedDeBruijn(kmer_set, epsilon=0.2, seed=8)
        cascade = CascadingBloomDeBruijn(kmer_set, epsilon=0.2, seed=8)
        if exact.n_critical > 50:
            cascade_cfp_bits = cascade.size_in_bits - cascade._b1.size_in_bits
            assert cascade_cfp_bits < exact.critical_table_bits

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FilterBackedDeBruijn([])


class TestSequenceSearch:
    @pytest.fixture(scope="class")
    def experiments(self):
        return sequencing_experiments(8, 3000, K, shared_fraction=0.3, seed=81)

    def test_sbt_finds_the_right_experiment(self, experiments):
        sbt = SequenceBloomTree(experiments, epsilon=0.01, seed=9)
        query = list(experiments[3])[:80]
        assert 3 in sbt.query(query, theta=0.8)

    def test_sbt_prunes_subtrees(self, experiments):
        sbt = SequenceBloomTree(experiments, epsilon=0.01, seed=9)
        query = list(experiments[0])[:80]
        sbt.query(query, theta=0.9)
        # Visiting every node would cost 2·8−1 = 15; pruning must do better.
        assert sbt.last_query_nodes < 15

    def test_mantis_exact_results(self, experiments):
        mantis = MantisIndex(experiments, seed=10)
        # Ground truth by brute force.
        query = list(experiments[5])[:60]
        expected = [
            e
            for e, kmers in enumerate(experiments)
            if sum(1 for q in query if q in kmers) >= int(0.8 * len(query))
        ]
        got = mantis.query(query, theta=0.8)
        import math

        expected = [
            e
            for e, kmers in enumerate(experiments)
            if sum(1 for q in query if q in kmers) >= math.ceil(0.8 * len(query))
        ]
        assert got == expected

    def test_mantis_experiments_of_exact(self, experiments):
        mantis = MantisIndex(experiments, seed=10)
        some_kmer = next(iter(experiments[2]))
        expected = tuple(
            e for e, kmers in enumerate(experiments) if some_kmer in kmers
        )
        assert mantis.experiments_of(some_kmer) == expected
        assert mantis.experiments_of("A" * K) == () or "A" * K in set().union(
            *experiments
        )

    def test_mantis_vs_sbt_claims(self, experiments):
        """§3.2: Mantis is exact; SBT is approximate (may return extras)."""
        mantis = MantisIndex(experiments, seed=11)
        sbt = SequenceBloomTree(experiments, epsilon=0.2, seed=11)
        query = list(experiments[1])[:60]
        exact = set(mantis.query(query, theta=0.75))
        approx = set(sbt.query(query, theta=0.75))
        assert exact <= approx  # SBT never misses, may add false experiments

    def test_colour_classes_deduplicated(self, experiments):
        mantis = MantisIndex(experiments, seed=10)
        assert mantis.n_colour_classes <= mantis.n_kmers
        assert mantis.n_colour_classes >= 1
