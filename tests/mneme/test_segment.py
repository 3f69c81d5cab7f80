"""Unit tests for physical segment codecs."""

import struct
import zlib

import pytest

from repro.errors import BadBlockError, PoolError
from repro.mneme import (
    LOGICAL_SEGMENT_OBJECTS,
    SMALL_OBJECT_MAX,
    SMALL_SEGMENT_BYTES,
    DirectorySegment,
    FixedSlotSegment,
)


class TestFixedSlotSegment:
    def test_roundtrip(self):
        seg = FixedSlotSegment(pool_id=1, logseg=7)
        seg.put(0, b"hello")
        seg.put(254, b"x" * SMALL_OBJECT_MAX)
        seg.put(10, b"")
        raw = seg.to_bytes()
        assert len(raw) == SMALL_SEGMENT_BYTES
        back = FixedSlotSegment.from_bytes(raw)
        assert back.logseg == 7
        assert back.pool_id == 1
        assert back.get(0) == b"hello"
        assert back.get(254) == b"x" * SMALL_OBJECT_MAX
        assert back.get(10) == b""
        assert back.used == 3

    def test_empty_slots_stay_empty(self):
        seg = FixedSlotSegment(pool_id=1, logseg=0)
        back = FixedSlotSegment.from_bytes(seg.to_bytes())
        with pytest.raises(PoolError):
            back.get(3)

    def test_oversized_payload_rejected(self):
        seg = FixedSlotSegment(pool_id=1, logseg=0)
        with pytest.raises(PoolError):
            seg.put(0, b"y" * (SMALL_OBJECT_MAX + 1))

    def test_clear_slot(self):
        seg = FixedSlotSegment(pool_id=1, logseg=0)
        seg.put(5, b"data")
        seg.clear(5)
        back = FixedSlotSegment.from_bytes(seg.to_bytes())
        with pytest.raises(PoolError):
            back.get(5)

    def test_one_logical_segment_fits_one_4k_physical_segment(self):
        # The paper's design point: 255 objects of 16 bytes in 4 Kbytes.
        seg = FixedSlotSegment(pool_id=1, logseg=0)
        for slot in range(LOGICAL_SEGMENT_OBJECTS):
            seg.put(slot, b"abcdefghijkl")  # 12 bytes, the maximum
        assert len(seg.to_bytes()) == 4096

    def test_crc_detects_corruption(self):
        seg = FixedSlotSegment(pool_id=1, logseg=0)
        seg.put(0, b"payload")
        raw = bytearray(seg.to_bytes())
        raw[100] ^= 0xFF
        with pytest.raises(BadBlockError):
            FixedSlotSegment.from_bytes(bytes(raw))

    def test_wrong_magic_rejected(self):
        with pytest.raises(BadBlockError):
            FixedSlotSegment.from_bytes(b"JUNK" + bytes(SMALL_SEGMENT_BYTES - 4))


class TestDirectorySegment:
    def test_roundtrip(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(10, b"abc")
        seg.put(5, b"")
        seg.put(900, b"z" * 1000)
        back = DirectorySegment.from_bytes(seg.to_bytes())
        assert back.get(10) == b"abc"
        assert back.get(5) == b""
        assert back.get(900) == b"z" * 1000
        assert len(back) == 3

    def test_empty_segment_roundtrip(self):
        back = DirectorySegment.from_bytes(DirectorySegment(pool_id=2).to_bytes())
        assert len(back) == 0

    def test_padding(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"abc")
        raw = seg.to_bytes(pad_to=8192)
        assert len(raw) == 8192
        back = DirectorySegment.from_bytes(raw)
        assert back.get(1) == b"abc"

    def test_pad_too_small_rejected(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"x" * 100)
        with pytest.raises(PoolError):
            seg.to_bytes(pad_to=50)

    def test_byte_size_matches_serialization(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"abc")
        seg.put(2, b"defgh")
        assert seg.byte_size == len(seg.to_bytes())

    def test_remove(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"abc")
        seg.remove(1)
        assert 1 not in seg
        with pytest.raises(PoolError):
            seg.remove(1)

    def test_get_missing_raises(self):
        with pytest.raises(PoolError):
            DirectorySegment(pool_id=2).get(99)

    def test_crc_detects_corruption(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"payload bytes here")
        raw = bytearray(seg.to_bytes())
        raw[-3] ^= 0x55
        with pytest.raises(BadBlockError):
            DirectorySegment.from_bytes(bytes(raw))

    def test_overwrite_in_place(self):
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"old")
        seg.put(1, b"newer value")
        assert seg.get(1) == b"newer value"
        assert len(seg) == 1

    def test_object_count_past_the_buffer_is_a_bad_block(self):
        # The count sits in the header, outside the CRC.
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"abc")
        raw = bytearray(seg.to_bytes(pad_to=256))
        struct.pack_into("<H", raw, 6, 60_000)
        with pytest.raises(BadBlockError):
            DirectorySegment.from_bytes(bytes(raw))

    def test_entry_past_the_buffer_is_a_bad_block(self):
        # A directory entry whose extent runs off the segment, under a
        # CRC that matches the bytes actually there: without the bounds
        # check the object would come back silently truncated.
        seg = DirectorySegment(pool_id=2)
        seg.put(1, b"abc")
        seg.put(2, b"defgh")
        raw = bytearray(seg.to_bytes())
        struct.pack_into("<I", raw, 12 + 12 + 8, 5 + 100)  # entry 2's length
        struct.pack_into("<I", raw, 8, zlib.crc32(bytes(raw[12:])))
        with pytest.raises(BadBlockError):
            DirectorySegment.from_bytes(bytes(raw))

    def test_truncated_header_is_a_bad_block(self):
        with pytest.raises(BadBlockError):
            DirectorySegment.from_bytes(b"MSGD\x02\x00")
