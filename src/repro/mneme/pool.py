"""Object pools: the policy layer of the store.

"Objects are also logically grouped into pools, where a pool defines a
number of management policies for the objects contained in the pool, such
as how large the physical segments are, how the objects are laid out in a
physical segment, how objects are located within a file, and how objects
are created."  Pools are Mneme's primary extensibility mechanism; the
integrated system of the paper defines three:

* :class:`SmallObjectPool` — inverted lists of at most 12 bytes in fixed
  16-byte slots, one whole logical segment per 4 KB physical segment;
* :class:`MediumObjectPool` — lists up to 4 KB packed into 8 KB physical
  segments (the disk transfer block size);
* :class:`LargeObjectPool` — every list in its own physical segment of
  exactly the object's size.

Each pool attaches to a buffer; fetches go through the buffer, and dirty
segments are written back through the pool's save callback — the
"modified segment save routine" of the paper's buffer framework.
"""

from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ObjectNotFoundError, PoolError
from .buffers import Buffer, NullBuffer
from .ids import LOGICAL_SEGMENT_OBJECTS, logical_segment, oid_for, slot_in_segment
from .segment import (
    SMALL_OBJECT_MAX,
    SMALL_SEGMENT_BYTES,
    DirectorySegment,
    FixedSlotSegment,
)
from .tables import TOMBSTONE

#: Default physical segment size of the medium pool: the disk transfer block.
MEDIUM_SEGMENT_BYTES = 8192

#: Largest object the medium pool accepts (larger lists go to the large pool).
MEDIUM_OBJECT_MAX = 4096


class Pool:
    """Common machinery: logical segment ownership and object ordinals.

    A pool acquires logical segments from its file one at a time and
    fills their 255 slots sequentially, so an object's pool-local
    *ordinal* (its creation rank) is computable from its id — this is
    what keeps the auxiliary tables compact arrays.
    """

    def __init__(self, file_services, pool_id: int, name: str):
        self.file = file_services
        self.pool_id = pool_id
        self.name = name
        self.buffer: Buffer = NullBuffer()
        self.buffer.attach(pool_id, self._save_segment)
        self.objects_created = 0
        self.live_objects = 0
        self.fetches = 0
        self._lsegs = file_services.make_table(f"{name}.lsegs", "<I")
        self._ls_ordinal: Dict[int, int] = {
            entry[0]: ordinal for ordinal, entry in enumerate(self._lsegs)
        }
        #: The logical segment new objects go to, once its ``lsegs`` page
        #: is resident (appended or read in this process); ``None`` after
        #: :meth:`drop_caches`, so the next create pays the page read.
        self._open_ls: Optional[int] = None

    # -- buffer attachment -------------------------------------------------

    def attach_buffer(self, buffer: Buffer) -> None:
        """Attach this pool to a buffer (replacing the default NullBuffer)."""
        self.buffer = buffer
        buffer.attach(self.pool_id, self._save_segment)

    # -- id plumbing ---------------------------------------------------------

    def owns_logseg(self, logseg: int) -> bool:
        return logseg in self._ls_ordinal

    def logsegs(self) -> Iterable[int]:
        return list(self._ls_ordinal)

    def _allocate_oid(self) -> int:
        slot = self.objects_created % LOGICAL_SEGMENT_OBJECTS
        if slot == 0:
            self._adopt_logseg()
        elif self._open_ls is None:
            self._open_ls = self._lsegs.get(len(self._lsegs) - 1)[0]
        self.objects_created += 1
        self.live_objects += 1
        return oid_for(self._open_ls, slot)

    def _adopt_logseg(self) -> int:
        """Take the file's next logical segment for new objects."""
        self._open_ls = self.file.allocate_logseg(self.pool_id)
        self._ls_ordinal[self._open_ls] = self._lsegs.append(self._open_ls)
        return self._open_ls

    def drop_caches(self) -> None:
        """Forget the auxiliary tables' cached pages (a fresh process)."""
        for table in self.aux_tables():
            table.drop_cache()
        self._open_ls = None

    def _ordinal_of(self, oid: int) -> int:
        """Pool-local creation rank of ``oid``."""
        logseg = logical_segment(oid)
        try:
            ls_ord = self._ls_ordinal[logseg]
        except KeyError:
            raise ObjectNotFoundError(oid) from None
        ordinal = ls_ord * LOGICAL_SEGMENT_OBJECTS + slot_in_segment(oid)
        if ordinal >= self.objects_created:
            raise ObjectNotFoundError(oid)
        return ordinal

    # -- interface pools must implement --------------------------------------

    def create(self, data: bytes) -> int:
        raise NotImplementedError

    def fetch(self, oid: int) -> bytes:
        raise NotImplementedError

    def modify(self, oid: int, data: bytes) -> None:
        raise NotImplementedError

    def delete(self, oid: int) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def _save_segment(self, key, segment) -> None:
        raise NotImplementedError

    def aux_tables(self) -> list:
        """The pool's auxiliary tables (subclasses extend)."""
        return [self._lsegs]

    def scan_references(self, data: bytes) -> Tuple[int, ...]:
        """Object ids stored inside ``data``.

        Pools must be able to locate identifiers in their objects (Mneme
        needs this e.g. for garbage collection).  Plain byte objects hold
        none; subclasses with inter-object references override this.
        """
        return ()

    # -- persistence of pool progress ----------------------------------------

    def get_state(self) -> Tuple[int, int]:
        """(objects_created, live_objects) — persisted by the store meta."""
        return self.objects_created, self.live_objects

    def set_state(self, objects_created: int, live_objects: int) -> None:
        self.objects_created = objects_created
        self.live_objects = live_objects
        self._open_ls = None


#: One step of a bulk fill: (record index, action).  The action
#: allocates a logical segment or writes a filled segment.
BulkEvent = Tuple[int, Callable[[], None]]


class _PackingPool(Pool):
    """A pool that packs many objects per segment (small and medium).

    :meth:`bulk_events` fills an empty pool a segment at a time instead
    of an object at a time.  Object ids, segment contents, table entries
    and every main-file write come out as one ``create`` per object would
    have made them, provided the caller runs the events of every pool in
    record order: logical segments are numbered file-wide, and segments
    land in the file in the order they are written.
    """

    def bulk_events(
        self, datas: Sequence[bytes], at: Sequence[int]
    ) -> Tuple[List[BulkEvent], Callable[[], List[int]]]:
        """Events storing ``datas``, the objects ``create`` would get at
        record indexes ``at``, plus a finisher returning their ids (call
        it after every event ran; it leaves the last segment open, as
        ``create`` would)."""
        if self.objects_created or len(self._segs):
            raise PoolError(f"bulk fill of pool {self.name!r} needs an empty pool")
        sizes = [len(data) for data in datas]
        if sizes and max(sizes) > self.max_object_bytes:
            raise PoolError(
                f"{self.name} pool holds at most {self.max_object_bytes} bytes,"
                f" got {max(sizes)}"
            )
        per_ls = LOGICAL_SEGMENT_OBJECTS
        logsegs: List[int] = []

        def allocate() -> None:
            logsegs.append(self._adopt_logseg())
            oid_for(logsegs[-1], per_ls - 1)  # every id in it is valid

        def oids(lo: int, hi: int) -> List[int]:
            """``oid_for(logseg, slot)`` of objects ``lo..hi-1``, vectorized."""
            k = np.arange(lo, hi)
            return (np.array(logsegs)[k // per_ls] * per_ls + k % per_ls + 1).tolist()

        def open_segment(lo: int, hi: int) -> None:
            self._open, self._open_ordinal = self._filled_segment(
                oids(lo, hi), datas[lo:hi]
            )

        def write(lo: int, hi: int) -> None:
            open_segment(lo, hi)
            self._flush_open()

        bounds = self._segment_bounds(sizes)
        events = [(at[k], allocate) for k in range(0, len(datas), per_ls)]
        events += [(at[hi], partial(write, lo, hi)) for lo, hi in bounds[:-1]]

        def finish() -> List[int]:
            if datas:
                open_segment(*bounds[-1])
            self.objects_created = self.live_objects = len(datas)
            return oids(0, len(datas))

        return events, finish

    def _segment_bounds(self, sizes: List[int]) -> List[Tuple[int, int]]:
        """Object index ranges, one per segment, in ``create``'s packing."""
        raise NotImplementedError

    def _filled_segment(self, oids: List[int], datas: Sequence[bytes]):
        """A new segment holding ``datas`` under ``oids``, and its ordinal."""
        raise NotImplementedError


class SmallObjectPool(_PackingPool):
    """Fixed 16-byte slots; one logical segment per 4 KB physical segment."""

    def __init__(self, file_services, pool_id: int, name: str = "small"):
        super().__init__(file_services, pool_id, name)
        self._segs = file_services.make_table(f"{name}.segs", "<QI")
        self._open: Optional[FixedSlotSegment] = None
        self._open_ordinal = -1

    @property
    def max_object_bytes(self) -> int:
        return SMALL_OBJECT_MAX

    def aux_tables(self) -> list:
        return super().aux_tables() + [self._segs]

    def create(self, data: bytes) -> int:
        if len(data) > SMALL_OBJECT_MAX:
            raise PoolError(
                f"small pool holds at most {SMALL_OBJECT_MAX} bytes, got {len(data)}"
            )
        oid = self._allocate_oid()
        slot = slot_in_segment(oid)
        if slot == 0:
            self._flush_open()
            self._open = FixedSlotSegment(self.pool_id, logical_segment(oid))
            self._open_ordinal = self._segs.append(0, SMALL_SEGMENT_BYTES)
        elif self._open is None:
            # Resume a partially filled final segment (after flush/reopen).
            self._load_open()
        self._open.put(slot, data)
        return oid

    def _segment_bounds(self, sizes: List[int]) -> List[Tuple[int, int]]:
        per_ls = LOGICAL_SEGMENT_OBJECTS
        return [(lo, min(lo + per_ls, len(sizes))) for lo in range(0, len(sizes), per_ls)]

    def _filled_segment(self, oids: List[int], datas: Sequence[bytes]):
        segment = FixedSlotSegment.filled(self.pool_id, logical_segment(oids[0]), datas)
        return segment, self._segs.append(0, SMALL_SEGMENT_BYTES)

    def fetch(self, oid: int) -> bytes:
        self.fetches += 1
        ordinal = self._ordinal_of(oid)
        seg_ordinal = ordinal // LOGICAL_SEGMENT_OBJECTS
        segment = self._segment(seg_ordinal)
        try:
            return segment.get(slot_in_segment(oid))
        except PoolError:
            raise ObjectNotFoundError(oid) from None

    def modify(self, oid: int, data: bytes) -> None:
        if len(data) > SMALL_OBJECT_MAX:
            raise PoolError(
                f"small object cannot grow past {SMALL_OBJECT_MAX} bytes"
            )
        ordinal = self._ordinal_of(oid)
        seg_ordinal = ordinal // LOGICAL_SEGMENT_OBJECTS
        segment = self._segment(seg_ordinal)
        slot = slot_in_segment(oid)
        try:
            segment.get(slot)
        except PoolError:
            raise ObjectNotFoundError(oid) from None
        segment.put(slot, data)
        self._after_modify(seg_ordinal, segment)

    def delete(self, oid: int) -> None:
        ordinal = self._ordinal_of(oid)
        seg_ordinal = ordinal // LOGICAL_SEGMENT_OBJECTS
        segment = self._segment(seg_ordinal)
        slot = slot_in_segment(oid)
        try:
            segment.get(slot)
        except PoolError:
            raise ObjectNotFoundError(oid) from None
        segment.clear(slot)
        self.live_objects -= 1
        self._after_modify(seg_ordinal, segment)

    def reserve(self, oid: int) -> bool:
        """Pin the object's segment in the buffer if it is resident."""
        ordinal = self._ordinal_of(oid)
        return self.buffer.reserve((self.pool_id, ordinal // LOGICAL_SEGMENT_OBJECTS))

    def flush(self) -> None:
        self._flush_open()
        self.buffer.flush()
        self._segs.flush()
        self._lsegs.flush()

    # -- internals -----------------------------------------------------------

    def _segment(self, seg_ordinal: int) -> FixedSlotSegment:
        if seg_ordinal == self._open_ordinal and self._open is not None:
            return self._open
        key = (self.pool_id, seg_ordinal)
        segment = self.buffer.lookup(key)
        if segment is None:
            offset, length = self._segs.get(seg_ordinal)
            segment = FixedSlotSegment.from_bytes(self.file.read_segment(offset, length))
            self.buffer.insert(key, segment, length)
        return segment

    def _after_modify(self, seg_ordinal: int, segment: FixedSlotSegment) -> None:
        if seg_ordinal == self._open_ordinal:
            return  # written at flush
        key = (self.pool_id, seg_ordinal)
        if self.buffer.resident(key):
            self.buffer.mark_dirty(key)
        else:
            self.buffer.insert(key, segment, segment.byte_size, dirty=True)

    def _flush_open(self) -> None:
        """Write the open segment out and close it."""
        if self._open is None:
            return
        offset, _length = self._segs.get(self._open_ordinal)
        data = self._open.to_bytes()
        if offset == 0:
            offset = self.file.append_segment(data, align=SMALL_SEGMENT_BYTES)
            self._segs.set(self._open_ordinal, offset, len(data))
        else:
            self.file.write_segment(offset, data)
        self._open = None
        self._open_ordinal = -1

    def _load_open(self) -> None:
        """Re-adopt the last (partially filled) segment for more creates.

        A buffered copy takes precedence over the disk copy — it may
        carry modifications the buffer has not written back yet.
        """
        seg_ordinal = len(self._segs) - 1
        segment = self.buffer.take((self.pool_id, seg_ordinal))
        if segment is None:
            offset, length = self._segs.get(seg_ordinal)
            if offset == 0:
                raise PoolError("last small segment was never written")
            segment = FixedSlotSegment.from_bytes(self.file.read_segment(offset, length))
        self._open = segment
        self._open_ordinal = seg_ordinal

    def _save_segment(self, key, segment) -> None:
        seg_ordinal = key[1]
        offset, _length = self._segs.get(seg_ordinal)
        self.file.write_segment(offset, segment.to_bytes())


class MediumObjectPool(_PackingPool):
    """Objects of 13 bytes to 4 KB packed into 8 KB physical segments.

    "The physical segment size is based on the disk I/O block size and a
    desire to keep the segments relatively small so as to reduce the
    number of unused objects retrieved with each segment."
    """

    def __init__(
        self,
        file_services,
        pool_id: int,
        name: str = "medium",
        segment_bytes: int = MEDIUM_SEGMENT_BYTES,
        max_object_bytes: int = MEDIUM_OBJECT_MAX,
    ):
        super().__init__(file_services, pool_id, name)
        if max_object_bytes + 64 > segment_bytes:
            raise PoolError("segment size too small for the largest medium object")
        self.segment_bytes = segment_bytes
        self.max_object_bytes = max_object_bytes
        self._segs = file_services.make_table(f"{name}.segs", "<QI")
        self._omap = file_services.make_table(f"{name}.omap", "<I")
        self._open: Optional[DirectorySegment] = None
        self._open_ordinal = -1

    def aux_tables(self) -> list:
        return super().aux_tables() + [self._segs, self._omap]

    def create(self, data: bytes) -> int:
        if len(data) > self.max_object_bytes:
            raise PoolError(
                f"medium pool holds at most {self.max_object_bytes} bytes,"
                f" got {len(data)}"
            )
        oid = self._allocate_oid()
        if self._open is None:
            self._try_adopt_last(len(data))
        if self._open is not None and (
            self._open.byte_size + 12 + len(data) > self.segment_bytes
        ):
            self._flush_open()
        if self._open is None:
            self._new_open_segment()
        self._open.put(oid, data)
        self._omap.append(self._open_ordinal)
        return oid

    def _segment_bounds(self, sizes: List[int]) -> List[Tuple[int, int]]:
        empty = DirectorySegment(self.pool_id).byte_size
        bounds, lo, used = [], 0, empty
        for index, size in enumerate(sizes):
            if index > lo and used + 12 + size > self.segment_bytes:
                bounds.append((lo, index))
                lo, used = index, empty
            used += 12 + size
        return bounds + [(lo, len(sizes))]

    def _filled_segment(self, oids: List[int], datas: Sequence[bytes]):
        ordinal = self._segs.append(0, self.segment_bytes)
        self._omap.extend([(ordinal,)] * len(oids))
        return DirectorySegment(self.pool_id, dict(zip(oids, datas))), ordinal

    def fetch(self, oid: int) -> bytes:
        self.fetches += 1
        seg_ordinal = self._seg_ordinal_of(oid)
        segment = self._segment(seg_ordinal)
        try:
            return segment.get(oid)
        except PoolError:
            raise ObjectNotFoundError(oid) from None

    def modify(self, oid: int, data: bytes) -> None:
        if len(data) > self.max_object_bytes:
            raise PoolError(
                f"modified object of {len(data)} bytes exceeds the medium"
                f" pool limit {self.max_object_bytes}"
            )
        seg_ordinal = self._seg_ordinal_of(oid)
        segment = self._segment(seg_ordinal)
        if oid not in segment:
            raise ObjectNotFoundError(oid)
        old = segment.get(oid)
        segment.put(oid, data)
        if segment.byte_size > self.segment_bytes:
            segment.put(oid, old)  # roll back: it no longer fits in place
            raise PoolError(
                f"object {oid} grown to {len(data)} bytes no longer fits its"
                " 8 KB segment; store it via the large pool or a linked object"
            )
        self._after_modify(seg_ordinal, segment)

    def delete(self, oid: int) -> None:
        seg_ordinal = self._seg_ordinal_of(oid)
        segment = self._segment(seg_ordinal)
        try:
            segment.remove(oid)
        except PoolError:
            raise ObjectNotFoundError(oid) from None
        self._omap.set(self._ordinal_of(oid), TOMBSTONE)
        self.live_objects -= 1
        self._after_modify(seg_ordinal, segment)

    def reserve(self, oid: int) -> bool:
        try:
            seg_ordinal = self._seg_ordinal_of(oid)
        except ObjectNotFoundError:
            return False
        if seg_ordinal == self._open_ordinal:
            return True
        return self.buffer.reserve((self.pool_id, seg_ordinal))

    def flush(self) -> None:
        self._flush_open()
        self.buffer.flush()
        self._segs.flush()
        self._omap.flush()
        self._lsegs.flush()

    # -- internals -----------------------------------------------------------

    def _seg_ordinal_of(self, oid: int) -> int:
        (seg_ordinal,) = self._omap.get(self._ordinal_of(oid))
        if seg_ordinal == TOMBSTONE:
            raise ObjectNotFoundError(oid)
        return seg_ordinal

    def _segment(self, seg_ordinal: int) -> DirectorySegment:
        if seg_ordinal == self._open_ordinal and self._open is not None:
            return self._open
        key = (self.pool_id, seg_ordinal)
        segment = self.buffer.lookup(key)
        if segment is None:
            offset, length = self._segs.get(seg_ordinal)
            segment = DirectorySegment.from_bytes(self.file.read_segment(offset, length))
            self.buffer.insert(key, segment, length)
        return segment

    def _new_open_segment(self) -> None:
        self._open = DirectorySegment(self.pool_id)
        self._open_ordinal = self._segs.append(0, self.segment_bytes)

    def _flush_open(self) -> None:
        """Write the open segment out (padded to full size) and close it.

        The written segment stays in the buffer as a clean entry, as one
        a fetch loaded would, so a later grow in the same batch finds it
        there instead of reading it back.
        """
        if self._open is None:
            return
        data = self._open.to_bytes(pad_to=self.segment_bytes)
        offset, _length = self._segs.get(self._open_ordinal)
        if offset == 0:
            offset = self.file.append_segment(data, align=min(self.segment_bytes, 8192))
            self._segs.set(self._open_ordinal, offset, len(data))
        else:
            self.file.write_segment(offset, data)
        self.buffer.insert((self.pool_id, self._open_ordinal), self._open, len(data))
        self._open = None
        self._open_ordinal = -1

    def _after_modify(self, seg_ordinal: int, segment: DirectorySegment) -> None:
        if seg_ordinal == self._open_ordinal:
            return
        key = (self.pool_id, seg_ordinal)
        if self.buffer.resident(key):
            self.buffer.mark_dirty(key)
        else:
            self.buffer.insert(key, segment, self.segment_bytes, dirty=True)

    def _save_segment(self, key, segment) -> None:
        seg_ordinal = key[1]
        offset, _length = self._segs.get(seg_ordinal)
        self.file.write_segment(offset, segment.to_bytes(pad_to=self.segment_bytes))

    def _try_adopt_last(self, incoming_bytes: int) -> None:
        """Re-adopt the last written segment if the new object fits it.

        A buffered copy takes precedence over the disk copy — it may
        carry modifications the buffer has not written back yet.  It
        leaves the buffer only when adopted, so a segment too full to
        adopt stays buffered, clean or dirty, as it was.
        """
        if not len(self._segs):
            return
        seg_ordinal = len(self._segs) - 1
        key = (self.pool_id, seg_ordinal)
        segment = self.buffer.peek(key)
        if segment is None:
            offset, length = self._segs.get(seg_ordinal)
            if offset == 0:
                return
            segment = DirectorySegment.from_bytes(self.file.read_segment(offset, length))
        if segment.byte_size + 12 + incoming_bytes <= self.segment_bytes:
            self.buffer.take(key)
            self._open = segment
            self._open_ordinal = seg_ordinal


class LargeObjectPool(Pool):
    """One object per physical segment of exactly the object's size.

    "A number of inverted lists are so large, it is not reasonable to
    cluster them with other objects in the same physical segment."
    """

    def __init__(self, file_services, pool_id: int, name: str = "large"):
        super().__init__(file_services, pool_id, name)
        self._segs = file_services.make_table(f"{name}.segs", "<QI")
        self._omap = file_services.make_table(f"{name}.omap", "<I")

    def aux_tables(self) -> list:
        return super().aux_tables() + [self._segs, self._omap]

    def create(self, data: bytes) -> int:
        oid = self._allocate_oid()
        segment = DirectorySegment(self.pool_id)
        segment.put(oid, data)
        raw = segment.to_bytes()
        offset = self.file.append_segment(raw, align=8192)
        seg_ordinal = self._segs.append(offset, len(raw))
        self._omap.append(seg_ordinal)
        return oid

    def fetch(self, oid: int) -> bytes:
        self.fetches += 1
        seg_ordinal = self._seg_ordinal_of(oid)
        segment = self._segment(seg_ordinal)
        try:
            return segment.get(oid)
        except PoolError:
            raise ObjectNotFoundError(oid) from None

    def modify(self, oid: int, data: bytes) -> None:
        seg_ordinal = self._seg_ordinal_of(oid)
        offset, length = self._segs.get(seg_ordinal)
        segment = self._segment(seg_ordinal)
        if oid not in segment:
            raise ObjectNotFoundError(oid)
        segment.put(oid, data)
        if segment.byte_size <= length:
            # Fits in place: pad to the original extent.
            self.file.write_segment(offset, segment.to_bytes(pad_to=length))
        else:
            # Grown: relocate the segment; the old extent leaks (the
            # space-management problem the paper describes for updates).
            raw = segment.to_bytes()
            new_offset = self.file.append_segment(raw, align=8192)
            self._segs.set(seg_ordinal, new_offset, len(raw))
        key = (self.pool_id, seg_ordinal)
        self.buffer.insert(key, segment, segment.byte_size)

    def delete(self, oid: int) -> None:
        ordinal = self._ordinal_of(oid)
        seg_ordinal = self._seg_ordinal_of(oid)
        self._omap.set(ordinal, TOMBSTONE)
        self._segs.set(seg_ordinal, 0, 0)  # extent leaks; entry tombstoned
        self.live_objects -= 1

    def reserve(self, oid: int) -> bool:
        try:
            seg_ordinal = self._seg_ordinal_of(oid)
        except ObjectNotFoundError:
            return False
        return self.buffer.reserve((self.pool_id, seg_ordinal))

    def flush(self) -> None:
        self.buffer.flush()
        self._segs.flush()
        self._omap.flush()
        self._lsegs.flush()

    # -- internals -----------------------------------------------------------

    def _seg_ordinal_of(self, oid: int) -> int:
        (seg_ordinal,) = self._omap.get(self._ordinal_of(oid))
        if seg_ordinal == TOMBSTONE:
            raise ObjectNotFoundError(oid)
        return seg_ordinal

    def _segment(self, seg_ordinal: int) -> DirectorySegment:
        key = (self.pool_id, seg_ordinal)
        segment = self.buffer.lookup(key)
        if segment is None:
            offset, length = self._segs.get(seg_ordinal)
            if length == 0:
                raise ObjectNotFoundError(f"segment {seg_ordinal} deleted")
            segment = DirectorySegment.from_bytes(self.file.read_segment(offset, length))
            self.buffer.insert(key, segment, length)
        return segment

    def _save_segment(self, key, segment) -> None:
        seg_ordinal = key[1]
        offset, length = self._segs.get(seg_ordinal)
        self.file.write_segment(offset, segment.to_bytes(pad_to=length))
