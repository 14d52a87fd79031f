"""Squeakr-style k-mer counting on the counting quotient filter (§3.2).

DNA sequencing reads are decomposed into k-mers and counted in a CQF.  Two
modes, as in Squeakr (Pandey et al. 2017):

* **approximate** — fingerprints of log₂(1/ε) bits: small, counts can be
  conflated by fingerprint collisions (always an over-count, never under).
* **exact** — the fingerprint is the full 2k-bit packed k-mer (quotienting
  makes this cheaper than a hash table): counts are exact, which is what
  Mantis builds on.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.counting.cqf import CountingQuotientFilter
from repro.workloads.dna import extract_kmers, kmer_to_int


class KmerCounter:
    """Count k-mers across sequencing reads with a CQF."""

    def __init__(
        self,
        k: int,
        capacity: int,
        *,
        exact: bool = False,
        epsilon: float = 0.01,
        seed: int = 0,
    ):
        if k < 1 or k > 28:
            raise ValueError("k must be in [1, 28] (2k-bit packing)")
        self.k = k
        self.exact = exact
        import math

        quotient_bits = max(1, math.ceil(math.log2(capacity / 0.9)))
        if exact:
            # Exact mode: quotient + remainder = full 2k bits of the k-mer.
            remainder_bits = max(1, 2 * k - quotient_bits)
            self._cqf = CountingQuotientFilter(
                quotient_bits, remainder_bits, seed=seed
            )
            self._identity = True
        else:
            remainder_bits = max(1, math.ceil(math.log2(1 / epsilon)))
            self._cqf = CountingQuotientFilter(quotient_bits, remainder_bits, seed=seed)
            self._identity = False

    def _canonical(self, kmer: str) -> int:
        value = kmer_to_int(kmer)
        if self._identity:
            # Exact mode stores the packed k-mer itself (identity
            # "fingerprint"): patch the hash path by pre-splitting.
            return value
        return value

    def add_sequence(self, sequence: str) -> int:
        """Count all k-mers of *sequence*; returns how many were added."""
        kmers = extract_kmers(sequence, self.k)
        for kmer in kmers:
            self.add_kmer(kmer)
        return len(kmers)

    def add_reads(self, reads: Iterable[str]) -> int:
        return sum(self.add_sequence(read) for read in reads)

    def add_kmer(self, kmer: str) -> None:
        if self._identity:
            self._cqf.insert_exact(self._canonical(kmer))
        else:
            self._cqf.insert(self._canonical(kmer))

    def count(self, kmer: str) -> int:
        if self._identity:
            return self._cqf.count_exact(self._canonical(kmer))
        return self._cqf.count(self._canonical(kmer))

    def __contains__(self, kmer: str) -> bool:
        return self.count(kmer) > 0

    @property
    def n_distinct(self) -> int:
        return self._cqf.n_distinct_fingerprints

    @property
    def size_in_bits(self) -> int:
        return self._cqf.size_in_bits
