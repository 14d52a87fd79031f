"""Morton filter (Breslow & Jayasena 2018, PVLDB).

A compressed cuckoo filter, cited by §2.1 alongside the cuckoo filter.
Three ideas, all reproduced here:

* **Compression** — buckets are grouped into cache-line *blocks* that
  store only the occupied fingerprint slots plus a per-bucket occupancy
  count (the "fullness counter array"), so empty slots cost ~2 bits
  instead of a whole fingerprint.  Logical buckets can be provisioned
  sparsely (``logical_slack``) while physical storage stays dense.
* **Bias** — keys are placed in their primary bucket whenever possible,
  so most positive queries touch a single block.
* **Overflow tracking** — a per-block bit (the OTA) records whether any
  key overflowed out of it; negative queries skip the secondary bucket
  probe unless the bit is set, giving "fewer than 2 bucket accesses" per
  query on average.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.hashing import fingerprint, hash64, splitmix64
from repro.core.errors import DeletionError, FilterFullError
from repro.core.interfaces import DynamicFilter, Key

BUCKETS_PER_BLOCK = 16
SLOTS_PER_BUCKET = 3
# Physical capacity per block < logical slots (the compression win):
# 16 buckets x 3 slots = 48 logical, but only 40 are physically backed.
BLOCK_CAPACITY = 40
_FULLNESS_BITS = 2  # counts 0..3 occupants per logical bucket
MAX_KICKS = 500


class MortonFilter(DynamicFilter):
    """Compressed, primary-biased cuckoo filter with overflow tracking."""

    supports_deletes = True

    def __init__(
        self,
        n_buckets: int,
        fingerprint_bits: int,
        *,
        seed: int = 0,
    ):
        if n_buckets < BUCKETS_PER_BLOCK:
            raise ValueError(f"need at least {BUCKETS_PER_BLOCK} buckets")
        if not 1 <= fingerprint_bits <= 56:
            raise ValueError("fingerprint_bits must be in [1, 56]")
        self.n_buckets = 1 << max(4, (n_buckets - 1).bit_length())
        self.fingerprint_bits = fingerprint_bits
        self.n_blocks = self.n_buckets // BUCKETS_PER_BLOCK
        self.seed = seed
        self._buckets: list[list[int]] = [[] for _ in range(self.n_buckets)]
        self._block_load = [0] * self.n_blocks
        self._ota = [False] * self.n_blocks  # overflow tracking array
        self._n = 0
        self._rng = np.random.default_rng(seed ^ 0x307)
        # Instrumentation for the paper's "<2 bucket accesses" claim.
        self.bucket_accesses = 0
        self.queries = 0

    # -- hashing -----------------------------------------------------------------

    def _fingerprint(self, key: Key) -> int:
        return fingerprint(key, self.fingerprint_bits, self.seed ^ 0x30)

    def _primary(self, key: Key) -> int:
        return hash64(key, self.seed ^ 0x31) & (self.n_buckets - 1)

    def _alternate(self, bucket: int, fp: int) -> int:
        return (bucket ^ splitmix64(fp)) & (self.n_buckets - 1)

    def _block_of(self, bucket: int) -> int:
        return bucket // BUCKETS_PER_BLOCK

    # -- physical placement ----------------------------------------------------------

    def _room(self, bucket: int) -> bool:
        return (
            len(self._buckets[bucket]) < SLOTS_PER_BUCKET
            and self._block_load[self._block_of(bucket)] < BLOCK_CAPACITY
        )

    def _place(self, bucket: int, fp: int) -> None:
        self._buckets[bucket].append(fp)
        self._block_load[self._block_of(bucket)] += 1

    def _remove(self, bucket: int, fp: int) -> bool:
        if fp in self._buckets[bucket]:
            self._buckets[bucket].remove(fp)
            self._block_load[self._block_of(bucket)] -= 1
            return True
        return False

    # -- operations ---------------------------------------------------------------------

    def insert(self, key: Key) -> None:
        fp = self._fingerprint(key)
        primary = self._primary(key)
        if self._room(primary):  # the Morton bias: primary first, always
            self._place(primary, fp)
            self._n += 1
            return
        secondary = self._alternate(primary, fp)
        self._ota[self._block_of(primary)] = True
        if self._room(secondary):
            self._place(secondary, fp)
            self._n += 1
            return
        # Kick chain, as in the cuckoo filter.
        bucket, current = secondary, fp
        for _ in range(MAX_KICKS):
            victims = self._buckets[bucket]
            if not victims:
                break
            slot = int(self._rng.integers(len(victims)))
            current, victims[slot] = victims[slot], current
            self._ota[self._block_of(bucket)] = True
            bucket = self._alternate(bucket, current)
            if self._room(bucket):
                self._place(bucket, current)
                self._n += 1
                return
        raise FilterFullError(
            f"morton filter insertion failed (load {self.load_factor:.3f})"
        )

    def may_contain(self, key: Key) -> bool:
        fp = self._fingerprint(key)
        primary = self._primary(key)
        self.queries += 1
        self.bucket_accesses += 1
        if fp in self._buckets[primary]:
            return True
        # Only consult the secondary bucket when the primary block has ever
        # overflowed — the OTA shortcut.
        if not self._ota[self._block_of(primary)]:
            return False
        self.bucket_accesses += 1
        return fp in self._buckets[self._alternate(primary, fp)]

    def delete(self, key: Key) -> None:
        fp = self._fingerprint(key)
        primary = self._primary(key)
        if self._remove(primary, fp):
            self._n -= 1
            return
        if self._remove(self._alternate(primary, fp), fp):
            self._n -= 1
            return
        raise DeletionError("delete of a key that was never inserted")

    # -- accounting -----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def load_factor(self) -> float:
        return self._n / (self.n_blocks * BLOCK_CAPACITY)

    @property
    def size_in_bits(self) -> int:
        """Physical slots + fullness counters + OTA (the compressed layout)."""
        physical = self.n_blocks * BLOCK_CAPACITY * self.fingerprint_bits
        fullness = self.n_buckets * _FULLNESS_BITS
        return physical + fullness + self.n_blocks

    def mean_bucket_accesses(self) -> float:
        """Average buckets touched per query since construction."""
        return self.bucket_accesses / max(1, self.queries)

    def expected_fpr(self) -> float:
        per_bucket = self._n / self.n_buckets
        return min(1.0, 2 * per_bucket * 2.0 ** (-self.fingerprint_bits))

    @classmethod
    def for_capacity(
        cls, capacity: int, epsilon: float, *, seed: int = 0
    ) -> "MortonFilter":
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        n_blocks = max(1, math.ceil(capacity / (BLOCK_CAPACITY * 0.95)))
        n_buckets = n_blocks * BUCKETS_PER_BLOCK
        f = max(1, math.ceil(math.log2(2 * SLOTS_PER_BUCKET / epsilon)))
        return cls(n_buckets, f, seed=seed)
