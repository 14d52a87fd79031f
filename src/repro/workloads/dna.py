"""Synthetic genomic workloads (substitute for SRA sequencing data).

Generates random genomes, sequencing-style reads, k-mer sets and families of
related "experiments" with controllable shared content — enough structure to
exercise the de Bruijn graph, Sequence Bloom Tree and Mantis reproductions.
"""

from __future__ import annotations

import numpy as np

BASES = "ACGT"
_BASE_CODE = {base: code for code, base in enumerate(BASES)}


def random_genome(length: int, seed: int = 0) -> str:
    """A uniform random DNA string of *length* bases."""
    rng = np.random.default_rng(seed)
    return "".join(BASES[i] for i in rng.integers(0, 4, size=length))



def extract_kmers(sequence: str, k: int) -> list[str]:
    """All length-*k* substrings, in order (duplicates preserved)."""
    if k <= 0:
        raise ValueError("k must be positive")
    if len(sequence) < k:
        return []
    return [sequence[i : i + k] for i in range(len(sequence) - k + 1)]


def kmer_to_int(kmer: str) -> int:
    """2-bit pack a k-mer into an integer key."""
    value = 0
    for base in kmer:
        value = (value << 2) | _BASE_CODE[base]
    return value


def int_to_kmer(value: int, k: int) -> str:
    out = []
    for _ in range(k):
        out.append(BASES[value & 3])
        value >>= 2
    return "".join(reversed(out))


def sequencing_reads(
    genome: str, n_reads: int, read_len: int, seed: int = 0
) -> list[str]:
    """Error-free fixed-length reads from random positions."""
    if read_len > len(genome):
        raise ValueError("read length exceeds genome length")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, len(genome) - read_len + 1, size=n_reads)
    return [genome[int(start) : int(start) + read_len] for start in starts]


def sequencing_experiments(
    n_experiments: int,
    genome_len: int,
    k: int,
    shared_fraction: float = 0.5,
    seed: int = 0,
) -> list[set[str]]:
    """Families of k-mer sets with controlled overlap.

    A core genome contributes *shared_fraction* of each experiment's
    sequence; the rest is experiment-private.  Mirrors how real sequencing
    experiments share housekeeping content — the regime SBT/Mantis index.
    """
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError("shared_fraction must be in [0, 1]")
    core_len = int(genome_len * shared_fraction)
    core = random_genome(core_len, seed) if core_len >= k else ""
    experiments = []
    for i in range(n_experiments):
        private = random_genome(genome_len - core_len, seed ^ (0xD0A + i * 7919))
        kmers = set(extract_kmers(core, k)) | set(extract_kmers(private, k))
        experiments.append(kmers)
    return experiments
