"""Round-trip, malformed-input, and corruption-detection tests for
filter serialization (``BBF1`` legacy and checksummed ``BBF2`` frames)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ChecksumError
from repro.core.serialize import dumps, frame, loads, unframe, verify
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.quotient import QuotientFilter
from repro.filters.ribbon import RibbonFilter
from repro.filters.xor import XorFilter


def _bbf1(filt) -> bytes:
    """A legacy ``BBF1`` blob: the magic plus the frame's body."""
    return b"BBF1" + unframe(dumps(filt)[4:])


def _assert_equivalent(original, restored, members, probes):
    assert len(restored) == len(original)
    assert restored.size_in_bits == original.size_in_bits
    for key in members:
        assert restored.may_contain(key)
    for key in probes:
        assert restored.may_contain(key) == original.may_contain(key)


class TestRoundTrips:
    def test_bloom(self, small_keys):
        members, negatives = small_keys
        bloom = BloomFilter(len(members), 0.01, seed=41)
        for key in members:
            bloom.insert(key)
        restored = loads(dumps(bloom))
        _assert_equivalent(bloom, restored, members, negatives[:500])

    def test_quotient(self, small_keys):
        members, negatives = small_keys
        qf = QuotientFilter.for_capacity(len(members), 0.01, seed=42)
        for key in members:
            qf.insert(key)
        restored = loads(dumps(qf))
        _assert_equivalent(qf, restored, members, negatives[:500])
        # The restored filter remains fully functional (delete works).
        restored.delete(members[0])
        assert not restored.may_contain(members[0])

    def test_cuckoo(self, small_keys):
        members, negatives = small_keys
        cf = CuckooFilter.for_capacity(len(members), 0.01, seed=43)
        for key in members:
            cf.insert(key)
        restored = loads(dumps(cf))
        _assert_equivalent(cf, restored, members, negatives[:500])
        restored.insert("new-key-after-load")
        assert restored.may_contain("new-key-after-load")

    def test_xor(self, small_keys):
        members, negatives = small_keys
        xf = XorFilter(members, 10, seed=44)
        restored = loads(dumps(xf))
        _assert_equivalent(xf, restored, members, negatives[:500])

    def test_ribbon(self, small_keys):
        members, negatives = small_keys
        rf = RibbonFilter(members, 10, seed=45)
        restored = loads(dumps(rf))
        _assert_equivalent(rf, restored, members, negatives[:500])


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="blob"):
            loads(b"NOPE" + b"\x00" * 32)

    def test_unsupported_type(self):
        from repro.counting.spectral import SpectralBloomFilter

        with pytest.raises(TypeError):
            dumps(SpectralBloomFilter(10, 0.01))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            loads(b"BBF1" + bytes([99]) + b"\x00" * 32)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="too short"):
            loads(b"")

    def test_magic_only(self):
        with pytest.raises(ValueError):
            loads(b"BBF1")
        with pytest.raises(ChecksumError, match="truncated"):
            loads(b"BBF2")

    def test_short_input(self):
        with pytest.raises(ValueError, match="too short"):
            loads(b"BB")

    def test_non_bytes_input(self):
        with pytest.raises(TypeError, match="bytes"):
            loads(42)

    def test_v2_truncated_frame_header(self):
        with pytest.raises(ChecksumError, match="truncated"):
            loads(b"BBF2" + b"\x01\x02\x03")

    def test_v2_length_mismatch(self):
        blob = bytearray(dumps(BloomFilter(100, 0.01)))
        with pytest.raises(ChecksumError, match="length mismatch"):
            loads(bytes(blob[:-4]))

    def test_v2_trailing_garbage(self):
        blob = dumps(BloomFilter(100, 0.01))
        with pytest.raises(ChecksumError, match="length mismatch"):
            loads(blob + b"\x00\x00")

    def test_v2_payload_corruption(self):
        blob = bytearray(dumps(BloomFilter(100, 0.01)))
        blob[-1] ^= 0x40
        with pytest.raises(ChecksumError, match="checksum"):
            loads(bytes(blob))

    def test_v2_unknown_kind_inside_valid_frame(self):
        with pytest.raises(ValueError, match="kind"):
            loads(b"BBF2" + frame(bytes([99]) + b"\x00" * 16))

    def test_v1_truncated_header(self):
        blob = _bbf1(BloomFilter(100, 0.01))
        with pytest.raises(ValueError, match="truncated"):
            loads(blob[:8])

    def test_v1_trailing_garbage(self):
        blob = _bbf1(BloomFilter(100, 0.01))
        with pytest.raises(ValueError, match="payload"):
            loads(blob + b"\x00" * 8)

    def test_v1_ragged_payload(self):
        blob = _bbf1(BloomFilter(100, 0.01))
        with pytest.raises(ValueError, match="64-bit"):
            loads(blob + b"\x00" * 3)


class TestV1Compat:
    """Legacy unchecksummed blobs must keep loading."""

    def test_v1_round_trip(self, small_keys):
        members, negatives = small_keys
        bloom = BloomFilter(len(members), 0.01, seed=7)
        for key in members:
            bloom.insert(key)
        blob = _bbf1(bloom)
        assert blob[:4] == b"BBF1"
        restored = loads(blob)
        _assert_equivalent(bloom, restored, members, negatives[:200])

    def test_v2_is_default_and_framed(self):
        bloom = BloomFilter(100, 0.01)
        blob = dumps(bloom)
        assert blob[:4] == b"BBF2"
        # The framed body is a valid v1 body.
        assert loads(b"BBF1" + unframe(blob[4:])).size_in_bits == \
            bloom.size_in_bits

    def test_v2_costs_eight_bytes(self):
        bloom = BloomFilter(100, 0.01)
        assert len(dumps(bloom)) == len(_bbf1(bloom)) + 8


class TestVerify:
    def test_intact_blobs_verify(self, small_keys):
        members, _ = small_keys
        bloom = BloomFilter(len(members), 0.01, seed=7)
        for key in members:
            bloom.insert(key)
        assert verify(dumps(bloom))
        assert verify(_bbf1(bloom))

    def test_corrupt_v2_fails_verify(self):
        blob = bytearray(dumps(BloomFilter(100, 0.01)))
        blob[20] ^= 0x01
        assert not verify(bytes(blob))

    def test_junk_fails_verify(self):
        assert not verify(b"")
        assert not verify(b"BBF2")
        assert not verify(b"NOPE" + b"\x00" * 64)
        assert not verify(None)

    def test_verify_is_cheaper_than_loads(self):
        # verify() must not construct a filter; a frame around an unknown
        # kind that loads() rejects is still checksum-valid vs not.
        good_frame_bad_kind = b"BBF2" + frame(bytes([99]) + b"\x00" * 16)
        assert not verify(good_frame_bad_kind)  # unknown kind


def _build_all(members):
    # Dynamic filters get generous headroom: at tiny sizes a cuckoo table
    # sized exactly for n keys can overflow, which is not what these
    # serialization tests are probing.
    capacity = max(64, 2 * len(members))
    filters = [
        BloomFilter(capacity, 0.01, seed=11),
        QuotientFilter.for_capacity(capacity, 0.01, seed=12),
        CuckooFilter.for_capacity(capacity, 0.01, seed=13),
    ]
    for filt in filters:
        for key in members:
            filt.insert(key)
    filters.append(XorFilter(members, 10, seed=14))
    filters.append(RibbonFilter(members, 10, seed=15))
    return filters


class TestProperties:
    """Hypothesis: round-trips preserve membership; mutations never pass
    silently on ``BBF2``."""

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**48), min_size=8, max_size=64,
            unique=True,
        ),
        version=st.sampled_from([1, 2]),
    )
    def test_round_trip_membership(self, keys, version):
        for filt in _build_all(keys):
            blob = dumps(filt) if version == 2 else _bbf1(filt)
            restored = loads(blob)
            for key in keys:
                assert restored.may_contain(key), type(filt).__name__

    @settings(max_examples=200, deadline=None)
    @given(
        pos=st.integers(min_value=0),
        delta=st.integers(min_value=1, max_value=255),
        data=st.data(),
    )
    def test_single_byte_mutation_never_silent(self, pos, delta, data):
        """Any single-byte change to a BBF2 blob raises ChecksumError or a
        bad-magic/bad-frame ValueError — never a silently different filter."""
        blob = bytearray(_MUTATION_BLOBS[data.draw(st.integers(0, len(_MUTATION_BLOBS) - 1))])
        blob[pos % len(blob)] ^= delta
        mutated = bytes(blob)
        with pytest.raises(ValueError):
            loads(mutated)
        assert not verify(mutated) or mutated[:4] == b"BBF1"


_MUTATION_KEYS = list(range(100, 160))
_MUTATION_BLOBS = [dumps(f) for f in _build_all(_MUTATION_KEYS)]
