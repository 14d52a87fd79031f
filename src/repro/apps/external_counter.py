"""Scaling a filter out of RAM (§1 feature 1 of the quotient filter).

Squeakr and Mantis count k-mer sets far larger than memory by exploiting
the quotient filter's defining property: its table layout *is* sorted
fingerprint order, so full in-RAM filters can be spilled to disk and later
k-way merged with sequential I/O only — exactly like sorted-run merging in
an LSM-tree.  (A Bloom filter cannot do this: its bits are unordered and
its unions can only OR same-sized arrays at a fixed capacity.)

:class:`ExternalQuotientCounter` reproduces the pipeline on the simulated
block device: ingest → spill filled QF shards → streaming merge.  I/O
accounting shows each spilled byte is written once and read once by the
merge — the sequential-pass behaviour that makes the approach viable on
real disks.
"""

from __future__ import annotations

from repro.common.storage import BlockDevice
from repro.core.interfaces import Key
from repro.filters.quotient import QuotientFilter

_FINGERPRINT_BYTES = 8


class ExternalQuotientCounter:
    """Out-of-RAM multiset builder over spilled quotient-filter shards."""

    def __init__(
        self,
        shard_capacity: int,
        epsilon: float,
        *,
        seed: int = 0,
    ):
        if shard_capacity <= 0:
            raise ValueError("shard_capacity must be positive")
        self.shard_capacity = shard_capacity
        self.epsilon = epsilon
        self.seed = seed
        self.device = BlockDevice()
        self._active = self._new_shard()
        self._spilled: list[int] = []  # shard ids on the device
        self._next_shard = 0

    def _new_shard(self) -> QuotientFilter:
        return QuotientFilter.for_capacity(
            self.shard_capacity, self.epsilon, seed=self.seed
        )

    def add(self, key: Key) -> None:
        """Ingest one occurrence; spills the active shard when full."""
        if len(self._active) >= self._active.capacity:
            self._spill()
        self._active.insert(key)

    def _spill(self) -> None:
        """Write the active shard to the device as a sorted fingerprint run."""
        run = list(self._active.iter_fingerprints_sorted())
        shard_id = self._next_shard
        self._next_shard += 1
        self.device.write(
            ("shard", shard_id), run, size=len(run) * _FINGERPRINT_BYTES
        )
        self._spilled.append(shard_id)
        self._active = self._new_shard()

    @property
    def n_spilled_shards(self) -> int:
        return len(self._spilled)

    def finalize(self) -> QuotientFilter:
        """Streaming k-way merge of all shards into one quotient filter.

        Each spilled run is read back once, sequentially; the merge holds
        one cursor per shard (in a real system: one block per shard), never
        the whole data set.
        """
        shards: list[QuotientFilter] = []
        for shard_id in self._spilled:
            run = self.device.read(("shard", shard_id))
            shard = self._new_shard()
            for fp in run:
                shard._insert_fingerprint(fp)
            shards.append(shard)
        shards.append(self._active)
        merged = QuotientFilter.merge(shards)
        for shard_id in self._spilled:
            self.device.delete(("shard", shard_id))
        return merged

    def count_in(self, merged: QuotientFilter, key: Key) -> int:
        """Multiplicity of *key* in the merged filter (duplicate slots)."""
        fp = merged._fingerprint(key)
        return sum(1 for stored in merged.iter_fingerprints() if stored == fp)
