"""Unit and failure-injection tests for write-ahead logging and recovery."""

import pytest

from repro.errors import RecoveryError
from repro.mneme import (
    MediumObjectPool,
    MnemeStore,
    RedoLog,
    recover,
)
from repro.simdisk import SimClock, SimDisk, SimFileSystem


@pytest.fixture()
def fs():
    return SimFileSystem(SimDisk(SimClock()), cache_blocks=128)


def test_log_and_replay(fs):
    main = fs.create("main")
    main.write(0, b"\x00" * 100)
    log = RedoLog(fs.create("wal"))
    log.log_write(10, b"HELLO")
    log.log_write(50, b"WORLD")
    report = recover(log, main)
    assert report.replayed == 2
    assert report.bytes_replayed == 10
    assert not report.torn_tail
    assert main.read(10, 5) == b"HELLO"
    assert main.read(50, 5) == b"WORLD"


def test_recovery_is_idempotent(fs):
    main = fs.create("main")
    main.write(0, b"\x00" * 100)
    log = RedoLog(fs.create("wal"))
    log.log_write(0, b"DATA")
    recover(log, main)
    # Log was checkpointed: second recovery replays nothing.
    report = recover(log, main)
    assert report.replayed == 0
    assert main.read(0, 4) == b"DATA"


def test_torn_tail_detected_and_skipped(fs):
    main = fs.create("main")
    main.write(0, b"\x00" * 100)
    wal_file = fs.create("wal")
    log = RedoLog(wal_file)
    log.log_write(0, b"GOOD")
    log.log_write(20, b"TORN-RECORD")
    # Simulate a crash mid-write: chop the last record's payload.
    wal_file.truncate(wal_file.size - 5)
    report = recover(RedoLog(wal_file), main)
    assert report.replayed == 1
    assert report.torn_tail
    assert main.read(0, 4) == b"GOOD"
    assert main.read(20, 4) == b"\x00" * 4  # torn record not replayed


def test_corrupt_payload_detected(fs):
    main = fs.create("main")
    main.write(0, b"\x00" * 100)
    wal_file = fs.create("wal")
    log = RedoLog(wal_file)
    log.log_write(0, b"FIRST")
    log.log_write(30, b"SECOND")
    # Flip a byte inside the second record's payload.
    wal_file.write(wal_file.size - 2, b"!")
    report = recover(RedoLog(wal_file), main)
    assert report.replayed == 1
    assert report.torn_tail


def test_foreign_log_rejected(fs):
    main = fs.create("main")  # empty file
    log = RedoLog(fs.create("wal"))
    log.log_write(5000, b"X")  # targets far past EOF of an empty file
    with pytest.raises(RecoveryError):
        recover(log, main)


def test_checkpoint_truncates(fs):
    log = RedoLog(fs.create("wal"))
    log.log_write(0, b"abc")
    assert log.size > 0
    log.checkpoint()
    assert log.size == 0
    records, torn = log.records()
    assert records == [] and not torn


def test_wal_protects_mneme_segment_writes(fs):
    """End-to-end: crash after WAL write but before main-file write."""
    store = MnemeStore(fs)
    wal = RedoLog(fs.create("inv.wal"))
    f = store.open_file("inv", wal=wal)
    pool = f.create_pool(2, MediumObjectPool)
    f.load()
    oid = pool.create(b"durable" * 100)
    f.flush()

    # Every segment byte that reached the main file is also in the log,
    # so replaying the log reconstructs the same contents.
    image_before = f.main.read(0, f.main.size)
    # Simulate losing the main file's segment area (keep the header).
    f.main.write(16, b"\x00" * (f.main.size - 16))
    recover(wal, f.main)
    assert f.main.read(0, f.main.size) == image_before

    store2 = MnemeStore(fs)
    f2 = store2.open_file("inv")
    pool2 = f2.create_pool(2, MediumObjectPool)
    f2.load()
    assert f2.fetch(oid) == b"durable" * 100


def test_read_repair_reads_one_record_of_a_long_log(fs):
    """``latest_for`` looks the offset up and reads that one record in
    one call — after a reopen and across seals too."""
    wal_file = fs.create("wal")
    log = RedoLog(wal_file)
    for i in range(300):
        log.log_write(8 * (i % 50), bytes([i % 256]) * 8)

    def reads():
        return sum(f.stats.read_calls for f in log.generations)

    latest_7 = bytes([257 % 256]) * 8
    before = reads()
    assert log.latest_for(8 * 7) == latest_7
    assert reads() - before == 1
    assert log.latest_for(400) is None and reads() - before == 1
    assert RedoLog(wal_file).latest_for(8 * 7) == latest_7

    # The first seal finds every latest copy in the open generation and
    # re-logs nothing; the second copies all but the one offset its
    # batch wrote from the older generation, where they lie back to
    # back, in one read, and drops it.
    log.seal(1)
    log.log_write(8 * 49, b"newest!!")
    base = log.generations[0]
    before = base.stats.read_calls
    log.seal(2)
    assert base.stats.read_calls - before == 1
    records, torn = log.records()
    assert not torn and len(records) == 50 + 1
    assert sorted(offset for offset, _data in records[:-1]) == list(range(0, 400, 8))
    before = reads()
    assert log.latest_for(8 * 49) == b"newest!!"
    assert log.latest_for(8 * 7) == latest_7
    assert reads() - before == 2


def _sealed_log(fs):
    """A log whose base holds offsets 0 and 8, and whose open generation
    rewrote offset 8: the next seal must carry offset 0 over."""
    log = RedoLog(fs.create("wal"))
    log.log_writes([(0, b"base-0!!"), (8, b"base-8!!")])
    log.seal(1)
    log.log_write(8, b"open-8!!")
    return log


def test_seal_copies_the_base_record_not_the_main_file(fs):
    log = _sealed_log(fs)
    log.seal(2, fallback=lambda offset, length: b"main-bad")
    assert log.latest_for(0) == b"base-0!!"
    assert [len(f.name) for f in log.generations] == [len("wal.base"), 3]
    records, torn = log.records()
    assert not torn and records[:-1] == [(8, b"open-8!!"), (0, b"base-0!!")]


def test_seal_falls_back_for_a_bad_base_record_and_never_raises(fs):
    log = _sealed_log(fs)
    base = log.generations[0]
    fs.disk.corrupt_block(base._blocks[0])  # both base records unreadable
    log.seal(2, fallback=lambda offset, length: b"main-0!!")
    assert log.latest_for(0) == b"main-0!!"

    log = _sealed_log(SimFileSystem(SimDisk(SimClock())))
    log.generations[0].write(20, b"X")  # rot offset 0's base payload
    log.seal(2)  # no fallback: nothing good to keep
    assert log.latest_for(0) is None
    assert log.latest_for(8) == b"open-8!!"


def test_a_seal_with_nothing_logged_appends_only_the_marker(fs):
    log = RedoLog(fs.create("wal"))
    log.log_writes([(0, b"base-0!!"), (8, b"base-8!!")])
    log.seal(1)
    base = log.generations[0]
    sizes = [f.size for f in log.generations]
    log.seal(2)
    log.seal(3)
    assert log.generations[0] is base and base.size == sizes[0]
    assert log.generations[1].size == sizes[1] + 2 * (20 + 8)  # two markers
    assert log.epoch == 3 and RedoLog(fs.open("wal")).epoch == 3
    assert log.latest_for(0) == b"base-0!!"


def test_a_seal_keeps_the_good_copy_of_a_segment_rotted_on_the_platter(fs):
    """The segment a batch leaves alone is re-logged from the log's own
    checked record, never from the main file, so read repair still has
    the good copy after the seal."""
    store = MnemeStore(fs)
    f = store.open_file("inv", wal=RedoLog(fs.create("wal")))
    a = f.append_segment(b"A" * 4096, align=4096)
    b = f.append_segment(b"B" * 4096, align=4096)
    f.wal.seal(1, f.verified_copy)
    block_no = f.main._blocks[a // 8192]
    rotted = bytearray(fs.disk.peek_block(block_no))
    rotted[a % 8192] ^= 0xFF
    fs.disk.write_block(block_no, bytes(rotted))
    fs.chill()
    f.write_segment(b, b"b" * 4096)
    f.wal.seal(2, f.verified_copy)
    assert [f.name for f in f.wal.generations] == ["wal.base", "wal"]
    assert f.read_segment(a, 4096) == b"A" * 4096
    assert f.resilience.read_repairs == 1
