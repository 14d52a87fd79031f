"""ARF — the Adaptive Range Filter from Hekaton (Alexiou et al. 2013).

A binary tree over the integer key domain whose leaves carry one bit:
"may contain keys" or "certainly empty".  The tree starts trivial (root =
occupied) and is *trained*: escalating a false positive splits the covering
leaf (consulting the data, which Hekaton has on the cold path anyway) until
the query's region is marked empty, subject to a node budget; when the
budget is exhausted, least-recently-useful leaves are collapsed.

Reproduces the §2.5 characterisation: works well for stable/repeating
integer workloads (the trained regions stay relevant), but training costs
are real and shifting workloads need retraining (experiment F5 shows the
contrast with the statically robust designs).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.interfaces import RangeFilter

MAX_ESCALATION_STEPS = 64  # leaf splits one escalate() may spend


class _Node:
    __slots__ = ("lo", "hi", "occupied", "left", "right", "used")

    def __init__(self, lo: int, hi: int, occupied: bool):
        self.lo = lo
        self.hi = hi
        self.occupied = occupied
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.used = 0  # usefulness counter for budget-driven collapse

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class AdaptiveRangeFilter(RangeFilter):
    """Trained binary-tree range filter with a node budget."""

    def __init__(
        self,
        keys: list[int],
        *,
        key_bits: int = 48,
        max_nodes: int = 4096,
        seed: int = 0,
    ):
        self.key_bits = key_bits
        self.max_nodes = max_nodes
        self._keys = sorted(set(keys))
        if self._keys and (self._keys[0] < 0 or self._keys[-1] >= 1 << key_bits):
            raise ValueError("key out of universe range")
        self._n = len(self._keys)
        self._root = _Node(0, (1 << key_bits) - 1, self._n > 0)
        self._n_nodes = 1

    # -- ground truth (the cold store ARF trains against) -----------------------

    def _has_key_in(self, lo: int, hi: int) -> bool:
        i = bisect_left(self._keys, lo)
        return i < self._n and self._keys[i] <= hi

    # -- queries --------------------------------------------------------------------

    def _query(self, node: _Node, lo: int, hi: int) -> bool:
        if hi < node.lo or lo > node.hi:
            return False
        if node.is_leaf:
            node.used += 1
            return node.occupied
        return self._query(node.left, lo, hi) or self._query(node.right, lo, hi)

    def may_intersect(self, lo: int, hi: int) -> bool:
        if lo > hi:
            raise ValueError("empty range: lo > hi")
        return self._query(self._root, lo, hi)

    # -- training ---------------------------------------------------------------------

    def _split(self, node: _Node) -> None:
        mid = (node.lo + node.hi) // 2
        node.left = _Node(node.lo, mid, self._has_key_in(node.lo, mid))
        node.right = _Node(mid + 1, node.hi, self._has_key_in(mid + 1, node.hi))
        self._n_nodes += 2

    def escalate(self, lo: int, hi: int) -> None:
        """Train on a confirmed-empty query range: split covering occupied
        leaves until [lo, hi] is answered empty (or budget/precision runs
        out)."""
        if self._has_key_in(lo, hi):
            raise ValueError("escalate() is for confirmed-empty ranges")
        for _ in range(MAX_ESCALATION_STEPS):
            if not self.may_intersect(lo, hi):
                return
            leaf = self._find_blocking_leaf(self._root, lo, hi)
            if leaf is None or leaf.lo == leaf.hi:
                return
            if self._n_nodes + 2 > self.max_nodes:
                self._collapse_least_used()
                if self._n_nodes + 2 > self.max_nodes:
                    return
            self._split(leaf)

    def _find_blocking_leaf(self, node: _Node, lo: int, hi: int) -> _Node | None:
        if hi < node.lo or lo > node.hi:
            return None
        if node.is_leaf:
            return node if node.occupied else None
        return self._find_blocking_leaf(node.left, lo, hi) or self._find_blocking_leaf(
            node.right, lo, hi
        )

    def _collapse_least_used(self) -> None:
        """Merge the least-used split back into a leaf (space reclamation)."""
        best: tuple[int, _Node] | None = None

        def visit(node: _Node):
            nonlocal best
            if node.is_leaf:
                return
            if node.left.is_leaf and node.right.is_leaf:
                score = node.left.used + node.right.used
                if best is None or score < best[0]:
                    best = (score, node)
            else:
                visit(node.left)
                visit(node.right)

        visit(self._root)
        if best is None:
            return
        node = best[1]
        node.occupied = node.left.occupied or node.right.occupied
        node.left = node.right = None
        self._n_nodes -= 2

    def train(self, sample_queries: list[tuple[int, int]]) -> None:
        """Batch training on a workload sample (the Hekaton deployment mode)."""
        for lo, hi in sample_queries:
            if not self._has_key_in(lo, hi):
                self.escalate(lo, hi)

    def __len__(self) -> int:
        return self._n

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def size_in_bits(self) -> int:
        """~2 bits per node: one topology bit + one occupied bit (the
        paper's succinct encoding)."""
        return 2 * self._n_nodes
