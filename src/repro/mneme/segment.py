"""Physical segment layouts.

A physical segment is Mneme's unit of transfer between disk and main
memory; its size is arbitrary and chosen by the pool that owns it.  Two
on-disk layouts cover the three pools of the integrated system:

* :class:`FixedSlotSegment` — the small object pool's layout.  255 fixed
  16-byte slots (a 4-byte size field plus up to 12 data bytes), one whole
  logical segment per 4 KB physical segment, located purely by slot
  arithmetic.  "This greatly simplifies both the indexing strategy used
  to locate these objects in the file and the buffer management strategy
  for these segments."
* :class:`DirectorySegment` — medium and large pools.  A slot directory
  (object id, offset, length) followed by packed object bytes.

Both layouts carry a CRC so failure-injection tests can exercise torn
write detection.
"""

import struct
import zlib
from operator import add, itemgetter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import BadBlockError, PoolError
from .ids import LOGICAL_SEGMENT_OBJECTS

_FIXED_HDR = struct.Struct("<4sHHII")  # magic, pool id, used slots, crc, logseg
_FIXED_MAGIC = b"MSGF"
_DIR_HDR = struct.Struct("<4sHHI")     # magic, pool id, object count, crc
_DIR_ENTRY = struct.Struct("<III")     # oid, offset-in-segment, length
_DIR_MAGIC = b"MSGD"

#: Bytes per small object slot: a 4-byte size field plus 12 data bytes.
SMALL_SLOT_BYTES = 16

#: Largest payload a small slot can hold.
SMALL_OBJECT_MAX = SMALL_SLOT_BYTES - 4

#: Size of a small pool physical segment: one whole logical segment.
SMALL_SEGMENT_BYTES = 4096

_FIXED_SLOTS_SIZE = LOGICAL_SEGMENT_OBJECTS * SMALL_SLOT_BYTES
_SLOT = struct.Struct(f"<I{SMALL_OBJECT_MAX}s")  # size (or empty marker), payload
_EMPTY_SLOT = 0xFFFFFFFF
_EMPTY_BODY = _SLOT.pack(_EMPTY_SLOT, b"") * LOGICAL_SEGMENT_OBJECTS
_PADDING = b"\x00" * (SMALL_SEGMENT_BYTES - _FIXED_HDR.size - _FIXED_SLOTS_SIZE)
assert _FIXED_HDR.size + _FIXED_SLOTS_SIZE <= SMALL_SEGMENT_BYTES


class FixedSlotSegment:
    """One small pool segment: 255 fixed slots, one logical segment.

    The slots live as their on-disk body, 255 packed 16-byte slots that
    :meth:`put` and :meth:`clear` patch in place, so writing a segment
    back is a header and a CRC, and reading one is a CRC check and one
    copy.
    """

    __slots__ = ("pool_id", "logseg", "_body")

    def __init__(self, pool_id: int, logseg: int, body=_EMPTY_BODY):
        self.pool_id = pool_id
        self.logseg = logseg
        self._body = bytearray(body)

    @classmethod
    def filled(cls, pool_id: int, logseg: int, datas: Sequence[bytes]) -> "FixedSlotSegment":
        """A segment whose first slots hold ``datas``, the rest empty."""
        if max(map(len, datas), default=0) > SMALL_OBJECT_MAX:
            raise PoolError(f"an object exceeds small slot payload {SMALL_OBJECT_MAX}")
        return cls(pool_id, logseg, b"".join(
            [_SLOT.pack(len(data), data) for data in datas]
            + [_EMPTY_BODY[len(datas) * SMALL_SLOT_BYTES:]]
        ))

    def get(self, slot: int) -> bytes:
        size, payload = _SLOT.unpack_from(self._body, slot * SMALL_SLOT_BYTES)
        if size == _EMPTY_SLOT:
            raise PoolError(f"slot {slot} of logical segment {self.logseg} is empty")
        return payload[:size]

    def put(self, slot: int, data: bytes) -> None:
        if len(data) > SMALL_OBJECT_MAX:
            raise PoolError(
                f"{len(data)} bytes exceed small slot payload {SMALL_OBJECT_MAX}"
            )
        _SLOT.pack_into(self._body, slot * SMALL_SLOT_BYTES, len(data), data)

    def clear(self, slot: int) -> None:
        _SLOT.pack_into(self._body, slot * SMALL_SLOT_BYTES, _EMPTY_SLOT, b"")

    @property
    def used(self) -> int:
        sizes = np.frombuffer(self._body, dtype="<u4")[::SMALL_SLOT_BYTES // 4]
        return int(np.count_nonzero(sizes != _EMPTY_SLOT))

    def to_bytes(self) -> bytes:
        header = _FIXED_HDR.pack(
            _FIXED_MAGIC, self.pool_id, self.used, zlib.crc32(self._body),
            self.logseg,
        )
        return header + self._body + _PADDING

    @classmethod
    def from_bytes(cls, data: bytes) -> "FixedSlotSegment":
        magic, pool_id, _used, crc, logseg = _FIXED_HDR.unpack_from(data, 0)
        if magic != _FIXED_MAGIC:
            raise BadBlockError("not a fixed-slot segment")
        body = memoryview(data)[_FIXED_HDR.size:_FIXED_HDR.size + _FIXED_SLOTS_SIZE]
        if zlib.crc32(body) != crc:
            raise BadBlockError(f"fixed segment for logseg {logseg} fails CRC")
        return cls(pool_id, logseg, body)

    @property
    def byte_size(self) -> int:
        return SMALL_SEGMENT_BYTES


class DirectorySegment:
    """A directory-addressed segment for medium and large objects.

    A segment read by :meth:`from_bytes` keeps its image and an index of
    the directory: :meth:`get` slices the one object asked for, and
    :meth:`to_bytes` returns the image while nothing was put into or
    removed from the segment.  The first change slices every object out
    of the image, and from then on the segment repacks them in id order
    — the bytes a segment built from scratch with the same objects packs
    to.
    """

    __slots__ = ("pool_id", "_objects", "_image", "_extents", "_payload_bytes")

    def __init__(self, pool_id: int, objects: Optional[Dict[int, bytes]] = None):
        self.pool_id = pool_id
        #: oid -> payload, once the segment is not its image.
        self._objects: Dict[int, bytes] = dict(objects) if objects else {}
        #: The bytes the segment was read from, padding cut, while they
        #: are still its serialization; and oid -> (offset, length) in them.
        self._image: Optional[bytes] = None
        self._extents: Dict[int, Tuple[int, int]] = {}
        #: Running total of payload bytes, so ``byte_size`` is O(1) —
        #: pools consult it on every create.
        self._payload_bytes = sum(map(len, self._objects.values()))

    def get(self, oid: int) -> bytes:
        try:
            if self._image is None:
                return self._objects[oid]
            offset, length = self._extents[oid]
        except KeyError:
            raise PoolError(f"object {oid} not in this segment") from None
        return self._image[offset:offset + length]

    def put(self, oid: int, data: bytes) -> None:
        self._slice_objects()
        old = self._objects.get(oid)
        if old is not None:
            self._payload_bytes -= len(old)
        self._objects[oid] = bytes(data)
        self._payload_bytes += len(data)

    def remove(self, oid: int) -> None:
        self._slice_objects()
        if oid not in self._objects:
            raise PoolError(f"object {oid} not in this segment")
        self._payload_bytes -= len(self._objects.pop(oid))

    def _slice_objects(self) -> None:
        """Leave the image: hold every object as its own ``bytes``."""
        if self._image is not None:
            image = self._image
            self._objects = {
                oid: image[offset:offset + length]
                for oid, (offset, length) in self._extents.items()
            }
            self._image, self._extents = None, {}

    def __contains__(self, oid: int) -> bool:
        return oid in (self._objects if self._image is None else self._extents)

    def __len__(self) -> int:
        return len(self._objects if self._image is None else self._extents)

    @property
    def byte_size(self) -> int:
        """Serialized size (header + directory + payloads)."""
        return _DIR_HDR.size + _DIR_ENTRY.size * len(self) + self._payload_bytes

    def to_bytes(self, pad_to: int = 0) -> bytes:
        if self._image is not None:
            out = self._image
        else:
            entries = []
            payload = bytearray()
            base = _DIR_HDR.size + _DIR_ENTRY.size * len(self._objects)
            for oid in sorted(self._objects):
                data = self._objects[oid]
                entries.append(_DIR_ENTRY.pack(oid, base + len(payload), len(data)))
                payload += data
            body = b"".join(entries) + bytes(payload)
            crc = zlib.crc32(body)
            out = _DIR_HDR.pack(_DIR_MAGIC, self.pool_id, len(self._objects), crc) + body
        if pad_to and len(out) < pad_to:
            out += b"\x00" * (pad_to - len(out))
        if pad_to and len(out) > pad_to:
            raise PoolError(
                f"segment of {len(out)} bytes does not fit padded size {pad_to}"
            )
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "DirectorySegment":
        """Check a segment and index its directory; slice no object.

        The object count and the directory are checked against the
        buffer before the CRC (the count is outside it), so a corrupt
        header raises :class:`~repro.errors.BadBlockError` like any
        other bad block.
        """
        if len(data) < _DIR_HDR.size:
            raise BadBlockError("directory segment truncated")
        magic, pool_id, count, crc = _DIR_HDR.unpack_from(data, 0)
        if magic != _DIR_MAGIC:
            raise BadBlockError("not a directory segment")
        directory_end = _DIR_HDR.size + _DIR_ENTRY.size * count
        if directory_end > len(data):
            raise BadBlockError(f"directory of {count} objects overruns the segment")
        fields = struct.unpack_from(f"<{3 * count}I", data, _DIR_HDR.size)
        oids, offsets, lengths = fields[0::3], fields[1::3], fields[2::3]
        end = max(map(add, offsets, lengths), default=directory_end)
        if end > len(data):
            raise BadBlockError("directory entry points past the segment")
        if zlib.crc32(memoryview(data)[_DIR_HDR.size:end]) != crc:
            raise BadBlockError("directory segment fails CRC")
        segment = cls(pool_id)
        segment._image = bytes(data[:end])
        segment._extents = dict(zip(oids, zip(offsets, lengths)))
        segment._payload_bytes = sum(map(itemgetter(1), segment._extents.values()))
        return segment
