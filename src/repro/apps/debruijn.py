"""Filter-backed de Bruijn graph representations (§3.2).

* :class:`FilterBackedDeBruijn` — Pell et al.'s probabilistic
  representation (k-mer set in a Bloom filter; edges implied by
  membership of both endpoints) plus Chikhi & Rizk's exact upgrade: an
  explicit table of **critical false positives** — FP k-mers adjacent to
  true k-mers — whose removal makes navigation exact.
* :class:`CascadingBloomDeBruijn` — Salikhov et al.'s refinement: the
  critical-FP table is itself replaced by a cascade of Bloom filters plus
  a tiny exact residue, cutting its memory several-fold.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.filters.bloom import BloomFilter
from repro.workloads.dna import BASES

CASCADE_EPSILON = 0.05  # FPR of the cascade's B2 and B3 levels


def neighbours(kmer: str) -> list[str]:
    """The (up to) 8 potential de Bruijn neighbours of *kmer*."""
    suffix, prefix = kmer[1:], kmer[:-1]
    return [suffix + b for b in BASES] + [b + prefix for b in BASES]


class FilterBackedDeBruijn:
    """Bloom-filter de Bruijn graph with optional exact critical-FP table."""

    def __init__(
        self,
        kmers: Iterable[str],
        *,
        epsilon: float = 0.01,
        exact: bool = True,
        seed: int = 0,
    ):
        self._kmers = set(kmers)
        if not self._kmers:
            raise ValueError("k-mer set must be non-empty")
        self.k = len(next(iter(self._kmers)))
        self._bloom = BloomFilter(len(self._kmers), epsilon, seed=seed)
        for kmer in self._kmers:
            self._bloom.insert(kmer)
        self._critical: set[str] = set()
        if exact:
            self._critical = self._find_critical_false_positives()

    def _find_critical_false_positives(self) -> set[str]:
        """FP k-mers reachable in one step from a true k-mer (Chikhi–Rizk:
        removing exactly these makes navigation from true nodes exact)."""
        critical = set()
        for kmer in self._kmers:
            for cand in neighbours(kmer):
                if cand not in self._kmers and self._bloom.may_contain(cand):
                    critical.add(cand)
        return critical

    # -- navigation -------------------------------------------------------------

    def contains(self, kmer: str) -> bool:
        """Navigational membership: exact for walks from true k-mers when
        the critical-FP table is present."""
        return self._bloom.may_contain(kmer) and kmer not in self._critical

    def successors(self, kmer: str) -> list[str]:
        return [s + "" for s in (kmer[1:] + b for b in BASES) if self.contains(s)]

    def walk(self, start: str, max_steps: int = 10_000) -> list[str]:
        """Greedy unitig-style walk following unique successors."""
        path = [start]
        seen = {start}
        current = start
        for _ in range(max_steps):
            nexts = [n for n in self.successors(current) if n not in seen]
            if len(nexts) != 1:
                break
            current = nexts[0]
            path.append(current)
            seen.add(current)
        return path

    # -- accounting ------------------------------------------------------------------

    @property
    def n_kmers(self) -> int:
        return len(self._kmers)

    @property
    def n_critical(self) -> int:
        return len(self._critical)

    @property
    def critical_fraction(self) -> float:
        return self.n_critical / self.n_kmers

    @property
    def bloom_bits(self) -> int:
        return self._bloom.size_in_bits

    @property
    def critical_table_bits(self) -> int:
        """Exact table cost: 2k bits per stored critical FP."""
        return self.n_critical * 2 * self.k

    @property
    def size_in_bits(self) -> int:
        return self.bloom_bits + self.critical_table_bits


class CascadingBloomDeBruijn:
    """Chikhi–Rizk structure with the cFP table as a Bloom cascade.

    B1 holds the true k-mers; B2 holds the critical FPs of B1; B3 holds the
    true k-mers that B2 wrongly captures; a tiny exact residue T4 holds the
    critical FPs that survive B3.  Query: alternate through the cascade.
    """

    def __init__(
        self,
        kmers: Iterable[str],
        *,
        epsilon: float = 0.01,
        seed: int = 0,
    ):
        base = FilterBackedDeBruijn(kmers, epsilon=epsilon, exact=True, seed=seed)
        self.k = base.k
        self._b1 = base._bloom
        self._n = base.n_kmers
        true_set = base._kmers
        critical = base._critical

        self._b2 = self._bloom_of(critical, CASCADE_EPSILON, seed ^ 2)
        caught_true = (
            {k for k in true_set if self._b2.may_contain(k)} if self._b2 else set()
        )
        self._b3 = self._bloom_of(caught_true, CASCADE_EPSILON, seed ^ 3)
        self._t4 = (
            {c for c in critical if self._b3.may_contain(c)} if self._b3 else critical
        )

    @staticmethod
    def _bloom_of(items: set[str], epsilon: float, seed: int) -> BloomFilter | None:
        if not items:
            return None
        bloom = BloomFilter(len(items), epsilon, seed=seed)
        for item in items:
            bloom.insert(item)
        return bloom

    def contains(self, kmer: str) -> bool:
        if not self._b1.may_contain(kmer):
            return False
        if self._b2 is None or not self._b2.may_contain(kmer):
            return True
        if self._b3 is None or not self._b3.may_contain(kmer):
            return False
        return kmer not in self._t4

    @property
    def size_in_bits(self) -> int:
        bits = self._b1.size_in_bits
        for bloom in (self._b2, self._b3):
            if bloom is not None:
                bits += bloom.size_in_bits
        return bits + len(self._t4) * 2 * self.k

    @property
    def n_kmers(self) -> int:
        return self._n

    @property
    def residue_size(self) -> int:
        return len(self._t4)


class WeightedDeBruijn:
    """deBGR-style weighted de Bruijn graph (Pandey et al. 2017, §3.2).

    Edge (i.e. (k+1)-mer) abundances live in an approximate counting
    quotient filter; node abundances are derived as the sum of incident
    edge counts.  In an exact weighted de Bruijn graph, every internal
    node satisfies the flow invariant  Σ in-edge counts = Σ out-edge
    counts; fingerprint collisions in the CQF break it.  deBGR's insight:
    while the data is still streaming at construction time, invariant
    violations pinpoint the corrupted counts, which are then re-counted
    exactly into a small side table — "iteratively self-correct
    approximation errors" with working memory close to the final size.

    ``build`` performs construction + correction; ``edge_weight`` serves
    corrected counts.
    """

    def __init__(self, k: int, capacity: int, *, epsilon: float = 0.01, seed: int = 0):
        from repro.counting.cqf import CountingQuotientFilter

        if k < 2 or k > 27:
            raise ValueError("k must be in [2, 27]")
        self.k = k
        import math

        quotient_bits = max(1, math.ceil(math.log2(capacity / 0.9)))
        remainder_bits = max(1, math.ceil(math.log2(1 / epsilon)))
        self._cqf = CountingQuotientFilter(quotient_bits, remainder_bits, seed=seed)
        self._corrections: dict[str, int] = {}  # exact counts for fixed edges
        self._node_kmers: set[str] = set()
        self.n_corrected = 0

    @classmethod
    def build(
        cls, sequences: list[str], k: int, *, epsilon: float = 0.01, seed: int = 0
    ) -> "WeightedDeBruijn":
        from repro.workloads.dna import extract_kmers

        edges: dict[str, int] = {}
        for seq in sequences:
            for edge in extract_kmers(seq, k + 1):
                edges[edge] = edges.get(edge, 0) + 1
        graph = cls(k, max(64, 2 * len(edges)), epsilon=epsilon, seed=seed)
        for edge, count in edges.items():
            for _ in range(count):
                graph._cqf.insert(edge)
            graph._node_kmers.add(edge[:-1])
            graph._node_kmers.add(edge[1:])
        graph._self_correct(edges)
        return graph

    # -- the correction pass ---------------------------------------------------

    def _approx_edge_weight(self, edge: str) -> int:
        return self._cqf.count(edge)

    def _in_edges(self, node: str) -> list[str]:
        from repro.workloads.dna import BASES

        return [b + node for b in BASES]

    def _out_edges(self, node: str) -> list[str]:
        from repro.workloads.dna import BASES

        return [node + b for b in BASES]

    def _self_correct(self, true_edges: dict[str, int]) -> None:
        """Find invariant-violating nodes; re-count their incident edges
        exactly (the data is still available during construction)."""
        suspicious: set[str] = set()
        for node in self._node_kmers:
            flow_in = sum(self._approx_edge_weight(e) for e in self._in_edges(node))
            flow_out = sum(self._approx_edge_weight(e) for e in self._out_edges(node))
            # Boundary nodes (sequence start/end) legitimately unbalance by
            # their terminal multiplicity; large mismatches flag collisions.
            if abs(flow_in - flow_out) > self._boundary_slack(node, true_edges):
                suspicious.add(node)
        for node in suspicious:
            for edge in self._in_edges(node) + self._out_edges(node):
                approx = self._approx_edge_weight(edge)
                truth = true_edges.get(edge, 0)
                if approx != truth:
                    self._corrections[edge] = truth
                    self.n_corrected += 1

    @staticmethod
    def _boundary_slack(node: str, true_edges: dict[str, int]) -> int:
        # A node is a boundary if some sequence starts/ends at it; the exact
        # slack equals its terminal multiplicity, which the construction
        # pass can observe.  We allow slack 0 for internal nodes and are
        # conservative (slack 1) otherwise to avoid over-correcting.
        return 1

    # -- queries -------------------------------------------------------------------

    def edge_weight(self, edge: str) -> int:
        """Corrected abundance of a (k+1)-mer."""
        if len(edge) != self.k + 1:
            raise ValueError(f"edge must be a {self.k + 1}-mer")
        if edge in self._corrections:
            return self._corrections[edge]
        return self._approx_edge_weight(edge)

    def node_weight(self, node: str) -> int:
        """Abundance of a k-mer = flow through it (out-edge sum, falling
        back to in-edges at sequence ends)."""
        if len(node) != self.k:
            raise ValueError(f"node must be a {self.k}-mer")
        out = sum(self.edge_weight(e) for e in self._out_edges(node))
        if out:
            return out
        return sum(self.edge_weight(e) for e in self._in_edges(node))

    def contains(self, node: str) -> bool:
        return self.node_weight(node) > 0

    @property
    def size_in_bits(self) -> int:
        correction_bits = len(self._corrections) * (2 * (self.k + 1) + 32)
        return self._cqf.size_in_bits + correction_bits
