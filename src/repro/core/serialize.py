"""Serialization for the core filters.

Filters guard on-disk data, so they must themselves be persistable: an
LSM-tree reopening after a restart cannot afford to rebuild every run's
filter from its keys.  ``dumps``/``loads`` give the core filters a compact,
versioned binary form.

Two frame versions exist:

* ``BBF1`` (legacy, read-only): magic + body, where body is a small struct
  header plus the raw packed words.  No integrity protection — a flipped
  bit silently decodes into a different filter.
* ``BBF2`` (current, the only one :func:`dumps` writes)::

      b"BBF2" | uint32 body_len | uint32 crc32(body) | body

  The body is byte-identical to a ``BBF1`` body, but the frame detects
  corruption: any mutation of length, checksum, or body raises
  :class:`~repro.core.errors.ChecksumError`; a mutated magic raises
  ``ValueError``.  :func:`verify` checks frame integrity without paying
  for a full decode, which is what a storage engine's scrubber wants.

Supported: :class:`~repro.filters.bloom.BloomFilter`,
:class:`~repro.filters.quotient.QuotientFilter`,
:class:`~repro.filters.cuckoo.CuckooFilter`,
:class:`~repro.filters.xor.XorFilter`,
:class:`~repro.filters.ribbon.RibbonFilter`.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.core.errors import ChecksumError
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.quotient import QuotientFilter
from repro.filters.ribbon import RibbonFilter
from repro.filters.xor import XorFilter

_MAGIC_V1 = b"BBF1"
_MAGIC_V2 = b"BBF2"
_FRAME_HEADER = struct.Struct("<II")  # body length, CRC32 of body

_KIND_BLOOM = 1
_KIND_QUOTIENT = 2
_KIND_CUCKOO = 3
_KIND_XOR = 4
_KIND_RIBBON = 5

_KNOWN_KINDS = (_KIND_BLOOM, _KIND_QUOTIENT, _KIND_CUCKOO, _KIND_XOR, _KIND_RIBBON)


# -- generic checksummed frame ---------------------------------------------------

def frame(body: bytes) -> bytes:
    """Wrap *body* in a length+CRC32 frame (no magic; see ``BBF2`` for the
    filter-blob frame).  Storage engines reuse this for their own blobs
    (manifests, WAL records, run data)."""
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def unframe(data: bytes) -> bytes:
    """Inverse of :func:`frame`; raises :class:`ChecksumError` on any
    length or checksum mismatch."""
    if len(data) < _FRAME_HEADER.size:
        raise ChecksumError(
            f"frame truncated: {len(data)} bytes < {_FRAME_HEADER.size}-byte header"
        )
    length, crc = _FRAME_HEADER.unpack_from(data)
    body = data[_FRAME_HEADER.size:]
    if len(body) != length:
        raise ChecksumError(
            f"frame length mismatch: header says {length} bytes, got {len(body)}"
        )
    if zlib.crc32(body) != crc:
        raise ChecksumError("frame checksum mismatch: blob corrupted")
    return body


# -- encode ----------------------------------------------------------------------

def _dumps_body(filt) -> bytes:
    """The version-independent body: kind byte + header + packed words."""
    if isinstance(filt, BloomFilter):
        header = struct.pack(
            "<BQdQqB", _KIND_BLOOM, filt.capacity, filt.epsilon, filt._n,
            filt.seed, filt._k,
        )
        return header + filt._bits.words.tobytes()
    if isinstance(filt, QuotientFilter):
        header = struct.pack(
            "<BBBqQd", _KIND_QUOTIENT, filt.quotient_bits, filt.remainder_bits,
            filt.seed, filt._n, filt.max_load,
        )
        payload = b"".join(
            arr.words.tobytes()
            for arr in (filt._remainders, filt._occupied, filt._continuation, filt._shifted)
        )
        return header + payload
    if isinstance(filt, CuckooFilter):
        stash = filt._stash if filt._stash is not None else 0
        header = struct.pack(
            "<BQBBqQQ", _KIND_CUCKOO, filt.n_buckets, filt.fingerprint_bits,
            filt.bucket_size, filt.seed, filt._n, stash,
        )
        return header + filt._table.tobytes()
    if isinstance(filt, XorFilter):
        header = struct.pack(
            "<BBQQQ", _KIND_XOR, filt.fingerprint_bits, filt._n,
            filt._segment, filt.seed,
        )
        return header + filt._table.words.tobytes()
    if isinstance(filt, RibbonFilter):
        header = struct.pack(
            "<BBQQQ", _KIND_RIBBON, filt.fingerprint_bits, filt._n,
            filt._m, filt.seed,
        )
        return header + filt._solution.words.tobytes()
    raise TypeError(f"serialization not supported for {type(filt).__name__}")


def dumps(filt) -> bytes:
    """Serialize a supported filter to a checksummed ``BBF2`` frame."""
    return _MAGIC_V2 + frame(_dumps_body(filt))


# -- decode ----------------------------------------------------------------------

def _exact_words(data: bytes, what: str) -> np.ndarray:
    """View *data* as uint64 words; reject ragged or misaligned payloads."""
    if len(data) % 8:
        raise ValueError(
            f"malformed filter blob: {what} payload is {len(data)} bytes, "
            "not a whole number of 64-bit words"
        )
    return np.frombuffer(data, dtype=np.uint64)


def _expect_payload(words: np.ndarray, expected: int, what: str) -> None:
    if words.size != expected:
        raise ValueError(
            f"malformed filter blob: {what} payload has {words.size} words, "
            f"expected {expected} (truncated or trailing garbage)"
        )


def _unpack_header(fmt: str, body: bytes, what: str):
    size = struct.calcsize(fmt)
    if len(body) < size:
        raise ValueError(
            f"malformed filter blob: {what} header truncated "
            f"({len(body)} bytes < {size})"
        )
    return struct.unpack(fmt, body[:size]), body[size:]


def _packed_words(n_fields: int, width: int) -> int:
    return (n_fields * width + 63) // 64


def _loads_body(body: bytes):
    """Decode a version-independent body (shared by BBF1 and BBF2).

    Header fields are range-checked and the header-implied payload size is
    computed *before* any filter is constructed: a corrupted (legacy BBF1)
    header must fail with ``ValueError``, not trigger a giant allocation.
    """
    if not body:
        raise ValueError("malformed filter blob: empty body")
    kind = body[0]
    if kind == _KIND_BLOOM:
        (_, capacity, epsilon, n, seed, k), payload = _unpack_header(
            "<BQdQqB", body, "bloom"
        )
        if capacity <= 0 or not 0.0 < epsilon < 1.0 or k < 1:
            raise ValueError("malformed filter blob: bloom header out of range")
        words = _exact_words(payload, "bloom")
        bits_per_key = math.log2(math.e) * math.log2(1 / epsilon)
        m = max(64, math.ceil(capacity * bits_per_key))
        _expect_payload(words, (m + 63) // 64, "bloom")
        filt = BloomFilter(capacity, epsilon, n_hashes=k, seed=seed)
        filt._n = n
        filt._bits.words[:] = words
        return filt
    if kind == _KIND_QUOTIENT:
        (_, q_bits, r_bits, seed, n, max_load), payload = _unpack_header(
            "<BBBqQd", body, "quotient"
        )
        if not 0 < q_bits <= 56 or r_bits < 1 or not 0.0 < max_load < 1.0:
            raise ValueError("malformed filter blob: quotient header out of range")
        words = _exact_words(payload, "quotient")
        slots = 1 << q_bits
        _expect_payload(
            words, _packed_words(slots, r_bits) + 3 * _packed_words(slots, 1), "quotient"
        )
        filt = QuotientFilter(q_bits, r_bits, seed=seed, max_load=max_load)
        filt._n = n
        arrays = (filt._remainders, filt._occupied, filt._continuation, filt._shifted)
        cursor = 0
        for arr in arrays:
            span = arr.words.size
            arr.words[:] = words[cursor : cursor + span]
            cursor += span
        return filt
    if kind == _KIND_CUCKOO:
        (_, n_buckets, f_bits, bucket_size, seed, n, stash), payload = _unpack_header(
            "<BQBBqQQ", body, "cuckoo"
        )
        if n_buckets < 1 or bucket_size < 1 or not 0 < f_bits <= 64:
            raise ValueError("malformed filter blob: cuckoo header out of range")
        words = _exact_words(payload, "cuckoo")
        _expect_payload(words, n_buckets * bucket_size, "cuckoo")
        filt = CuckooFilter(n_buckets, f_bits, bucket_size=bucket_size, seed=seed)
        filt._n = n
        filt._stash = stash if stash else None
        filt._table[:] = words.reshape(n_buckets, bucket_size)
        return filt
    if kind == _KIND_XOR:
        (_, f_bits, n, segment, seed), payload = _unpack_header("<BBQQQ", body, "xor")
        if not 0 < f_bits <= 64:
            raise ValueError("malformed filter blob: xor header out of range")
        words = _exact_words(payload, "xor")
        _expect_payload(words, _packed_words(segment * 3, f_bits), "xor")
        filt = XorFilter.__new__(XorFilter)
        filt.fingerprint_bits = f_bits
        filt._n = n
        filt._segment = segment
        filt._n_slots = segment * 3
        filt.seed = seed
        from repro.common.bitvector import PackedArray

        filt._table = PackedArray(filt._n_slots, f_bits)
        filt._table.words[:] = words
        return filt
    if kind == _KIND_RIBBON:
        (_, f_bits, n, m, seed), payload = _unpack_header("<BBQQQ", body, "ribbon")
        if not 0 < f_bits <= 64:
            raise ValueError("malformed filter blob: ribbon header out of range")
        words = _exact_words(payload, "ribbon")
        _expect_payload(words, _packed_words(m, f_bits), "ribbon")
        filt = RibbonFilter.__new__(RibbonFilter)
        filt.fingerprint_bits = f_bits
        filt._n = n
        filt._m = m
        filt.seed = seed
        from repro.common.bitvector import PackedArray

        filt._solution = PackedArray(m, f_bits)
        filt._solution.words[:] = words
        return filt
    raise ValueError(f"unknown filter kind {kind}")


def loads(data: bytes):
    """Deserialize bytes produced by :func:`dumps` (either frame version).

    Raises ``ValueError`` on any malformed input (empty, short, bad magic,
    bad kind, ragged payload) and :class:`ChecksumError` — itself a
    ``ValueError`` — when a ``BBF2`` frame fails its integrity check.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < 4:
        raise ValueError(
            f"not a beyondbloom filter blob: {len(data)} bytes is too short "
            "for a magic number"
        )
    magic = data[:4]
    if magic == _MAGIC_V2:
        return _loads_checked(unframe(data[4:]))
    if magic == _MAGIC_V1:
        return _loads_checked(data[4:])
    raise ValueError(f"not a beyondbloom filter blob (bad magic {magic!r})")


def _loads_checked(body: bytes):
    """Decode a body, converting stray decoder faults on hand-crafted or
    legacy-corrupted input into ``ValueError`` with a clear message."""
    try:
        return _loads_body(body)
    except ValueError:
        raise
    except Exception as exc:  # struct.error, OverflowError, numpy errors …
        raise ValueError(f"malformed filter blob: {exc}") from exc


def verify(data: bytes) -> bool:
    """Integrity-check a blob without fully decoding it.

    For ``BBF2`` frames this validates magic, length, and CRC32 — the check
    a scrubber runs over every blob on the device.  For legacy ``BBF1``
    blobs (no checksum) only structural plausibility is checked: magic,
    a known kind byte, and an intact header; payload corruption is
    undetectable by design, which is why ``BBF2`` exists.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return False
    data = bytes(data)
    if len(data) < 5:
        return False
    magic = data[:4]
    if magic == _MAGIC_V2:
        try:
            body = unframe(data[4:])
        except ChecksumError:
            return False
        return bool(body) and body[0] in _KNOWN_KINDS
    if magic == _MAGIC_V1:
        body = data[4:]
        if body[0] not in _KNOWN_KINDS:
            return False
        fmt = {
            _KIND_BLOOM: "<BQdQqB",
            _KIND_QUOTIENT: "<BBBqQd",
            _KIND_CUCKOO: "<BQBBqQQ",
            _KIND_XOR: "<BBQQQ",
            _KIND_RIBBON: "<BBQQQ",
        }[body[0]]
        return len(body) >= struct.calcsize(fmt) and len(body[struct.calcsize(fmt):]) % 8 == 0
    return False
