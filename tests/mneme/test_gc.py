"""Tests for garbage collection and file compaction."""

import pytest

from repro.errors import ObjectNotFoundError
from repro.mneme import (
    EPOCH_MARKER_OFFSET,
    ChunkedLargeObjectPool,
    LargeObjectPool,
    MediumObjectPool,
    MnemeStore,
    RedoLog,
    SmallObjectPool,
    chunk_ids,
    collect,
    compact,
    live_oids,
    read_linked,
    write_linked,
)
from repro.simdisk import SimClock, SimDisk, SimFileSystem


@pytest.fixture()
def fs():
    return SimFileSystem(SimDisk(SimClock()), cache_blocks=128)


def build_file(fs, wal=None):
    store = MnemeStore(fs)
    f = store.open_file("inv", wal=wal)
    f.create_pool(1, SmallObjectPool)
    f.create_pool(2, MediumObjectPool)
    f.create_pool(3, ChunkedLargeObjectPool)
    f.load()
    return f


class TestLiveOids:
    def test_lists_created_objects(self, fs):
        f = build_file(fs)
        ids = [f.pool(2).create(bytes([i]) * 100) for i in range(5)]
        f.flush()
        assert list(live_oids(f.pool(2))) == ids

    def test_excludes_deleted(self, fs):
        f = build_file(fs)
        ids = [f.pool(2).create(bytes([i]) * 100) for i in range(5)]
        f.flush()
        f.pool(2).delete(ids[2])
        assert list(live_oids(f.pool(2))) == ids[:2] + ids[3:]

    def test_small_pool_deleted_slots(self, fs):
        f = build_file(fs)
        ids = [f.pool(1).create(b"x") for _ in range(3)]
        f.flush()
        f.pool(1).delete(ids[1])
        f.flush()
        assert list(live_oids(f.pool(1))) == [ids[0], ids[2]]


class TestCollect:
    def test_sweeps_unreachable_chains(self, fs):
        f = build_file(fs)
        keep = write_linked(f.pool(3), b"k" * 50000, chunk_bytes=10000)
        drop = write_linked(f.pool(3), b"d" * 50000, chunk_bytes=10000)
        small_keep = f.pool(1).create(b"root")
        f.flush()
        report = collect(f, roots=[keep, small_keep])
        assert read_linked(f.pool(3), keep) == b"k" * 50000
        assert f.pool(1).fetch(small_keep) == b"root"
        with pytest.raises(ObjectNotFoundError):
            f.pool(3).fetch(drop)
        assert report.swept == 5  # the dropped chain's 5 chunks
        assert report.marked == 6  # 5 kept chunks + 1 small root

    def test_marks_through_references(self, fs):
        f = build_file(fs)
        head = write_linked(f.pool(3), b"z" * 30000, chunk_bytes=10000)
        ids = chunk_ids(f.pool(3), head)
        f.flush()
        report = collect(f, roots=[head])  # only the head is a root
        assert report.marked == len(ids)
        assert report.swept == 0
        assert read_linked(f.pool(3), head) == b"z" * 30000

    def test_empty_roots_sweeps_everything(self, fs):
        f = build_file(fs)
        f.pool(1).create(b"a")
        f.pool(2).create(b"b" * 100)
        f.flush()
        report = collect(f, roots=[])
        assert report.swept == 2
        assert report.live_by_pool == {"small": 0, "medium": 0, "large": 0}


class TestCompact:
    def test_reclaims_relocation_leaks(self, fs):
        f = build_file(fs)
        pool = f.pool(3)

        class Plain(LargeObjectPool):
            pass

        oid = pool.create(b"v" * 20000)
        f.flush()
        for grow in range(1, 6):
            pool.modify(oid, b"v" * (20000 + grow * 5000))  # relocates
        f.flush()
        before = f.main.size
        report = compact(f)
        assert report.bytes_reclaimed > 0
        assert f.main.size < before
        assert pool.fetch(oid) == b"v" * 45000

    def test_preserves_every_live_object(self, fs):
        f = build_file(fs)
        expected = {}
        for i in range(60):
            data = bytes([i]) * (i * 137 % 6000)
            pool = f.pool(1) if len(data) <= 12 else f.pool(2) if len(data) <= 4096 else f.pool(3)
            expected[pool.create(data)] = data
        f.flush()
        compact(f)
        f.fs.chill()
        for pool in f.pools.values():
            pool.buffer.clear()
        for oid, data in expected.items():
            assert f.fetch(oid) == data

    def test_dropped_segments_counted(self, fs):
        f = build_file(fs)
        oid = f.pool(3).create(b"gone" * 3000)
        keep = f.pool(3).create(b"stay" * 3000)
        f.flush()
        f.pool(3).delete(oid)
        report = compact(f)
        assert report.segments_dropped >= 1
        assert f.pool(3).fetch(keep) == b"stay" * 3000

    def test_compaction_after_gc(self, fs):
        f = build_file(fs)
        keep = write_linked(f.pool(3), b"k" * 80000, chunk_bytes=20000)
        drop = write_linked(f.pool(3), b"d" * 80000, chunk_bytes=20000)
        f.flush()
        size_full = f.total_size
        collect(f, roots=[keep])
        report = compact(f)
        assert f.total_size < size_full
        assert report.bytes_reclaimed >= 80000
        assert read_linked(f.pool(3), keep) == b"k" * 80000

    def test_wal_checkpointed(self, fs):
        # The old layout's records are dropped; the log restarts as one
        # sealed copy of every segment of the new main file.
        wal = RedoLog(fs.create("inv.wal"))
        f = build_file(fs, wal=wal)
        f.pool(2).create(b"m" * 500)
        f.flush()
        assert wal.size > 0
        compact(f)
        records, torn = wal.records()
        assert not torn
        assert [offset for offset, _data in records] == sorted(f._crcs) + [
            EPOCH_MARKER_OFFSET
        ]
        for offset, data in records[:-1]:
            assert f.main.read(offset, len(data)) == data

    def test_survives_reopen(self, fs):
        f = build_file(fs)
        ids = [f.pool(2).create(bytes([i]) * 500) for i in range(30)]
        f.flush()
        f.pool(2).delete(ids[7])
        compact(f)
        store2 = MnemeStore(fs)
        f2 = store2.open_file("inv")
        f2.create_pool(1, SmallObjectPool)
        f2.create_pool(2, MediumObjectPool)
        f2.create_pool(3, ChunkedLargeObjectPool)
        f2.load()
        for i, oid in enumerate(ids):
            if i == 7:
                with pytest.raises(ObjectNotFoundError):
                    f2.fetch(oid)
            else:
                assert f2.fetch(oid) == bytes([i]) * 500
