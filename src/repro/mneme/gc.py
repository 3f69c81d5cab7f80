"""Garbage collection and file compaction.

Mneme's design requires every pool "to locate for Mneme any identifiers
stored in the objects managed by the pool.  This would be necessary, for
instance, during garbage collection of the persistent store."  This
module supplies that garbage collector — a mark phase driven by the
pools' :meth:`~repro.mneme.pool.Pool.scan_references` and a sweep that
deletes unreachable objects — plus :func:`compact`, which rewrites a
Mneme file without the dead space that deletes, relocated large objects,
and tombstones leave behind (the "holes in the inverted lists" space
problem of the paper's Section 2, solved at the storage layer).
"""

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from ..errors import ReproError
from .ids import LOGICAL_SEGMENT_OBJECTS, oid_for
from .pool import LargeObjectPool, MediumObjectPool, Pool, SmallObjectPool
from .store import MnemeFile
from .tables import TOMBSTONE


def live_oids(pool: Pool) -> Iterable[int]:
    """Every object id currently live in a pool, in creation order."""
    lsegs = list(pool._lsegs)
    for ordinal in range(pool.objects_created):
        ls_ordinal, slot = divmod(ordinal, LOGICAL_SEGMENT_OBJECTS)
        oid = oid_for(lsegs[ls_ordinal][0], slot)
        if _exists(pool, oid, ordinal):
            yield oid


def _exists(pool: Pool, oid: int, ordinal: int) -> bool:
    if isinstance(pool, (MediumObjectPool, LargeObjectPool)):
        return pool._omap.get(ordinal)[0] != TOMBSTONE
    # Small pool: presence is recorded only in the segment slot.  A
    # corrupt segment counts as absent here; the integrity checker
    # reports it separately.
    try:
        pool.fetch(oid)
        return True
    except ReproError:
        return False


@dataclass
class GCReport:
    """What one mark-sweep pass found and reclaimed."""

    marked: int = 0
    swept: int = 0
    live_by_pool: Dict[str, int] = field(default_factory=dict)
    swept_by_pool: Dict[str, int] = field(default_factory=dict)


def collect(mfile: MnemeFile, roots: Iterable[int]) -> GCReport:
    """Mark objects reachable from ``roots``, delete the rest.

    References are discovered through each owning pool's
    ``scan_references``; a reference may point into any pool of the same
    file.  Objects with no registered owner (never-created ids) in the
    root set raise :class:`~repro.errors.MnemeError`.
    """
    marked: set = set()
    stack: List[int] = [oid for oid in roots if oid]
    while stack:
        oid = stack.pop()
        if oid in marked:
            continue
        marked.add(oid)
        pool = mfile._pool_of(oid)
        for ref in pool.scan_references(pool.fetch(oid)):
            if ref and ref not in marked:
                stack.append(ref)

    report = GCReport(marked=len(marked))
    for pool in mfile.pools.values():
        live = 0
        swept = 0
        for oid in list(live_oids(pool)):
            if oid in marked:
                live += 1
            else:
                pool.delete(oid)
                swept += 1
        report.live_by_pool[pool.name] = live
        report.swept_by_pool[pool.name] = swept
        report.swept += swept
    mfile.flush()
    return report


@dataclass
class CompactionReport:
    """Space accounting for one compaction pass."""

    bytes_before: int = 0
    bytes_after: int = 0
    segments_copied: int = 0
    segments_dropped: int = 0

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


def compact(mfile: MnemeFile) -> CompactionReport:
    """Rewrite the main file with only the live physical segments.

    Dead space accumulates from relocated large objects (grown past
    their extent), deleted large objects, and alignment slack at former
    end-of-file positions.  Compaction streams every live segment into a
    fresh file in pool-table order, updates the segment tables in place,
    and installs the new file under the old name.  Object identifiers,
    logical segments, and buffered (clean) segment contents all remain
    valid — only file offsets change.
    """
    # Dirty state must be on disk before we read segments back.
    mfile.flush()
    report = CompactionReport(bytes_before=mfile.main.size)
    wal = mfile.wal
    if wal is not None:
        # The main file is durable after that flush, so its log goes
        # before the copy: the peak holds the old and new main files,
        # not the log as well.
        wal.checkpoint()

    old_main = mfile.main
    scratch_name = f"{mfile.name}.mn.compact"
    new_main = mfile.fs.create(scratch_name)
    new_main.write(0, b"MNEMEFILE\x00v1\x00\x00\x00\x00")
    new_crcs = {}
    copied = []

    def migrate(pool: Pool, align: int) -> None:
        for seg_ordinal in range(len(pool._segs)):
            offset, length = pool._segs.get(seg_ordinal)
            if length == 0 or offset == 0:
                report.segments_dropped += 1
                continue
            data = old_main.read(offset, length)
            end = new_main.size
            if align > 1 and end % align:
                new_main.write(end, b"\x00" * (align - end % align))
                end = new_main.size
            new_main.write(end, data)
            new_crcs[end] = (length, zlib.crc32(data))
            copied.append((end, data))
            pool._segs.set(seg_ordinal, end, length)
            report.segments_copied += 1

    for pool in mfile.pools.values():
        if isinstance(pool, SmallObjectPool):
            migrate(pool, 4096)
        elif isinstance(pool, MediumObjectPool):
            migrate(pool, min(pool.segment_bytes, 8192))
        else:
            migrate(pool, 8192)

    old_name = old_main.name
    mfile.fs.remove(old_name)
    mfile.fs.rename(scratch_name, old_name)
    mfile.main = new_main
    # Segment checksums are keyed by offset; every offset just moved.
    mfile._crcs = new_crcs
    if wal is not None:
        # The log restarts as one sealed copy of the new layout, so the
        # next epoch's in-place writes have a committed copy to recover
        # to and to repair from.
        wal.log_writes(copied)
        wal.seal(wal.epoch)
    mfile.flush()
    report.bytes_after = new_main.size
    return report
