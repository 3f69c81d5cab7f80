"""Exhaustive crash-point tests for redo-log recovery.

A crash can truncate the write-ahead log at *any* byte: exactly between
records, inside a record header, or inside a payload.  These tests
enumerate every cut position of a multi-record log and assert the
recovery invariant at each one: :meth:`RedoLog.records` returns exactly
the longest complete prefix of records, flags ``torn_tail`` iff the cut
is not on a record boundary, and :func:`recover` replays that prefix —
no more, no less — then checkpoints.
"""

import pytest

from repro.core import config_by_name, materialize, prepare_collection
from repro.live import IngestPipeline, LiveCorpus
from repro.mneme import RedoLog, recover
from repro.mneme.recovery import _REC
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import CollectionProfile, SyntheticCollection

#: Payload sizes chosen to cross interesting shapes: tiny, odd-sized,
#: empty, and larger-than-header.
PAYLOADS = (b"alpha", b"z", b"", b"0123456789" * 7, b"tail-record")


def _fresh_fs():
    return SimFileSystem(SimDisk(SimClock()), cache_blocks=128)


def _build_log_image():
    """One WAL with every payload, plus its record boundaries and targets."""
    fs = _fresh_fs()
    log = RedoLog(fs.create("wal"))
    boundaries = [0]
    targets = []
    offset = 0
    for payload in PAYLOADS:
        log.log_write(offset, payload)
        targets.append((offset, payload))
        offset += max(len(payload), 1)
        boundaries.append(boundaries[-1] + _REC.size + len(payload))
    image = log._file.read(0, log.size)
    return image, boundaries, targets


IMAGE, BOUNDARIES, TARGETS = _build_log_image()


def _expected_prefix(cut: int):
    """Records fully contained in the first ``cut`` bytes of the log."""
    complete = 0
    while complete < len(TARGETS) and BOUNDARIES[complete + 1] <= cut:
        complete += 1
    return TARGETS[:complete]


@pytest.mark.parametrize("cut", range(len(IMAGE) + 1))
def test_every_cut_position_recovers_the_complete_prefix(cut):
    fs = _fresh_fs()
    wal_file = fs.create("wal")
    if cut:
        wal_file.write(0, IMAGE[:cut])
    log = RedoLog(wal_file)

    expected = _expected_prefix(cut)
    records, torn = log.records()
    assert records == expected
    assert torn == (cut not in BOUNDARIES)

    # Replay onto a main file large enough for every expected target.
    main = fs.create("main")
    main.write(0, b"\x00" * 128)
    report = recover(log, main)
    assert report.replayed == len(expected)
    assert report.bytes_replayed == sum(len(p) for _o, p in expected)
    assert report.torn_tail == (cut not in BOUNDARIES)
    for offset, payload in expected:
        assert main.read(offset, len(payload)) == payload

    # Recovery checkpointed: the log is empty and a rerun replays nothing.
    assert log.size == 0
    again = recover(log, main)
    assert again.replayed == 0 and not again.torn_tail


def test_mid_log_magic_corruption_stops_the_replay():
    """A corrupt *interior* header ends trust at that record, not at EOF."""
    fs = _fresh_fs()
    wal_file = fs.create("wal")
    wal_file.write(0, IMAGE)
    # Stomp the magic of the third record.
    wal_file.write(BOUNDARIES[2], b"XXXX")
    records, torn = RedoLog(wal_file).records()
    assert records == TARGETS[:2]
    assert torn


def test_mid_log_payload_corruption_stops_the_replay():
    fs = _fresh_fs()
    wal_file = fs.create("wal")
    wal_file.write(0, IMAGE)
    # Flip a byte inside the first record's payload (after its header).
    wal_file.write(BOUNDARIES[0] + _REC.size, b"\xff")
    records, torn = RedoLog(wal_file).records()
    assert records == []
    assert torn


def test_length_field_pointing_past_eof_is_a_torn_tail():
    """A header whose length overruns the file must not read garbage."""
    fs = _fresh_fs()
    wal_file = fs.create("wal")
    log = RedoLog(wal_file)
    log.log_write(0, b"ok")
    size_before = log.size
    log.log_write(2, b"x" * 50)
    # Keep the second header but only part of its payload.
    wal_file.truncate(size_before + _REC.size + 10)
    records, torn = RedoLog(wal_file).records()
    assert records == [(0, b"ok")]
    assert torn


# -- whole-epoch recovery: ingest batches sealed by epoch markers ---------
#
# The continuous-ingest WAL discipline: every segment write of a batch is
# logged, then one epoch-commit marker seals the batch.  A crash at any
# byte must recover to the last *fully published* epoch — a cut after a
# delete's tombstone write but before its marker discards the whole
# batch; a cut mid-batch never leaks a partial batch.

from repro.mneme import EPOCH_MARKER_OFFSET, recover_to_epoch
from repro.mneme.recovery import _EPOCH_PAYLOAD

#: (target offset | "epoch", payload | epoch number) — two adds sealed by
#: epoch 1, a delete-tombstone write sealed by epoch 2, then a mid-batch
#: write cut off before its marker could land.
EPOCH_SCRIPT = (
    (0, b"add:doc-21"),
    (16, b"add:doc-22"),
    ("epoch", 1),
    (32, b"tombstone:doc-3"),
    ("epoch", 2),
    (48, b"add:doc-23-uncommitted"),
)


def _build_epoch_log_image():
    fs = _fresh_fs()
    log = RedoLog(fs.create("wal"))
    boundaries = [0]
    for target, payload in EPOCH_SCRIPT:
        if target == "epoch":
            log.log_epoch(payload)
            length = _EPOCH_PAYLOAD.size
        else:
            log.log_write(target, payload)
            length = len(payload)
        boundaries.append(boundaries[-1] + _REC.size + length)
    return log._file.read(0, log.size), boundaries


EPOCH_IMAGE, EPOCH_BOUNDARIES = _build_epoch_log_image()


def _expected_epoch_state(cut: int):
    """(epoch, replayed writes, discarded) for a log cut at ``cut``."""
    complete = 0
    while (
        complete < len(EPOCH_SCRIPT)
        and EPOCH_BOUNDARIES[complete + 1] <= cut
    ):
        complete += 1
    committed = 0
    epoch = 0
    for i in range(complete):
        if EPOCH_SCRIPT[i][0] == "epoch":
            committed = i + 1
            epoch = EPOCH_SCRIPT[i][1]
    writes = [
        EPOCH_SCRIPT[i] for i in range(committed)
        if EPOCH_SCRIPT[i][0] != "epoch"
    ]
    return epoch, writes, complete - committed


@pytest.mark.parametrize("cut", range(len(EPOCH_IMAGE) + 1))
def test_every_cut_recovers_to_a_whole_epoch(cut):
    fs = _fresh_fs()
    wal_file = fs.create("wal")
    if cut:
        wal_file.write(0, EPOCH_IMAGE[:cut])
    log = RedoLog(wal_file)
    main = fs.create("main")
    main.write(0, b"\x00" * 128)
    before = main.read(0, 128)

    epoch, writes, discarded = _expected_epoch_state(cut)
    report = recover_to_epoch(log, main)
    assert report.epoch == epoch
    assert report.replayed == len(writes)
    assert report.discarded == discarded
    assert report.torn_tail == (cut not in EPOCH_BOUNDARIES)
    for offset, payload in writes:
        assert main.read(offset, len(payload)) == payload
    # Nothing beyond the last sealed epoch leaked onto the main file:
    # bytes outside the committed writes are untouched.
    touched = {
        i for offset, payload in writes
        for i in range(offset, offset + len(payload))
    }
    after = main.read(0, 128)
    for i in range(128):
        if i not in touched:
            assert after[i] == before[i]
    # Recovery checkpointed; a rerun is a no-op at epoch 0.
    assert log.size == 0
    again = recover_to_epoch(log, main)
    assert again.replayed == 0 and again.epoch == 0


def test_plain_recover_skips_markers_but_replays_everything():
    """Ordinary recovery honours markers as metadata only: every complete
    write replays, and the report carries the last marker's epoch."""
    fs = _fresh_fs()
    wal_file = fs.create("wal")
    wal_file.write(0, EPOCH_IMAGE)
    main = fs.create("main")
    main.write(0, b"\x00" * 128)
    report = recover(RedoLog(wal_file), main)
    assert report.epoch == 2
    assert report.replayed == 4  # all writes, markers skipped
    assert main.read(48, len(b"add:doc-23-uncommitted")) == b"add:doc-23-uncommitted"


def test_epoch_marker_offset_is_unreachable_by_physical_writes():
    """No physical record can alias the sentinel: replay would have to
    target an offset past any real file, which raises instead."""
    from repro.errors import RecoveryError

    fs = _fresh_fs()
    log = RedoLog(fs.create("wal"))
    log.log_write(EPOCH_MARKER_OFFSET - 1, b"almost")
    log.log_epoch(1)
    main = fs.create("main")
    main.write(0, b"\x00" * 64)
    with pytest.raises(RecoveryError):
        recover_to_epoch(log, main)


# -- a real ingest batch: one flush, one marker, whole-epoch recovery ------
#
# The scripted log above fixes the marker semantics; this drives the
# write path itself.  A batch's segment writes reach the log during the
# batch, its one ``store.flush()`` writes the open segments out,
# ``index.save()`` follows, and the epoch marker lands last — so a log
# cut at any record boundary inside the batch replays to exactly the
# main file of the previous epoch.

_HEADER = 16  # the main file's own header: written once, never logged


def _live_system():
    collection = SyntheticCollection(CollectionProfile(
        name="crash-live", models="test", documents=60, mean_doc_length=30,
        doc_length_sigma=0.5, vocab_size=400, seed=19,
    ))
    config = config_by_name(
        "mneme-linked", use_wal=True, medium_max_bytes=64, chunk_bytes=96
    )
    system = materialize(prepare_collection(collection), config)
    return system, LiveCorpus(collection)


def _record_boundaries(image: bytes):
    boundaries, pos = [0], 0
    while pos < len(image):
        _magic, _offset, length, _crc = _REC.unpack_from(image, pos)
        pos += _REC.size + length
        boundaries.append(pos)
    return boundaries


def test_a_batch_cut_at_any_record_boundary_recovers_the_previous_epoch():
    system, corpus = _live_system()
    store = system.index.store
    wal, main = store.mfile.wal, store.mfile.main
    pipeline = IngestPipeline(system)

    def publish(first_id, delete_id):
        pipeline.apply(
            adds=corpus.new_documents(6, after=first_id),
            deletes=[corpus.document(delete_id)],
        )
        # The sealed generation: the log's base after this publish.
        (sealed,) = [g.read(0, g.size) for g in wal.generations if g.size]
        return sealed, main.read(0, main.size)

    # The log as a crash in batch 2 finds it: epoch 1's generation, then
    # batch 2's open generation, parsed as one stream.
    generation_1, main_1 = publish(corpus.base_count, 2)
    generation_2, main_2 = publish(corpus.base_count + 6, 5)
    image = generation_1 + generation_2
    sealed_1, sealed_2 = len(generation_1), len(image)
    in_batch_2 = [b for b in _record_boundaries(image) if sealed_1 <= b < sealed_2]
    assert len(in_batch_2) > 10   # a batch is many segment writes, one marker

    def recovered(cut):
        fs = _fresh_fs()
        log_file = fs.create("wal")
        log_file.write(0, image[:cut])
        blank = fs.create("main")
        blank.write(0, b"\x00" * len(main_2))
        report = recover_to_epoch(RedoLog(log_file), blank)
        return report, blank.read(0, len(main_2))

    # Everything the main file holds went through the log (alignment
    # padding is zeros), so a replay onto zeros reproduces it.
    def image_of(main_bytes):
        return main_bytes[_HEADER:] + b"\x00" * (len(main_2) - len(main_bytes))

    for cut in in_batch_2:
        report, replayed = recovered(cut)
        assert report.epoch == 1 and not report.torn_tail
        assert replayed[_HEADER:] == image_of(main_1), cut
    # A cut inside a record of the batch is a torn tail of the same epoch.
    report, replayed = recovered(in_batch_2[3] + _REC.size // 2)
    assert report.epoch == 1 and report.torn_tail
    assert replayed[_HEADER:] == image_of(main_1)
    # The marker is the batch's last record; with it the batch is whole.
    report, replayed = recovered(sealed_2)
    assert report.epoch == 2 and report.discarded == 0
    assert replayed[_HEADER:] == image_of(main_2)


def test_batch_end_order_is_flush_then_save_then_marker():
    system, corpus = _live_system()
    index = system.index
    wal = index.store.mfile.wal
    events = []

    def noting(name, original):
        def call(*args):
            events.append(name)
            return original(*args)
        return call

    index.store.flush = noting("flush", index.store.flush)
    index.save = noting("save", index.save)
    wal.log_write = noting("log_write", wal.log_write)
    wal.log_epoch = noting("log_epoch", wal.log_epoch)
    IngestPipeline(system).apply(
        adds=corpus.new_documents(12, after=corpus.base_count)
    )
    # Twelve documents, one flush; ``save`` flushes again (nothing is
    # left to write); the marker is the last thing the log sees.
    # ``log_epoch`` frames its marker through ``log_write``.
    calls = [e for e in events if e != "log_write"]
    assert calls == ["flush", "save", "flush", "log_epoch"]
    assert events[-2:] == ["log_epoch", "log_write"]
    first_flush = events.index("flush")
    assert "log_write" in events[:first_flush]        # chained records: at once
    assert "log_write" in events[first_flush:events.index("save")]  # open segments
    assert "log_write" not in events[events.index("save"):-2]


# -- the first batch after a compaction ------------------------------------
#
# The compaction rewrites every segment to a new offset and restarts the
# log as one sealed copy of the new main file.  The next batch rewrites
# some of those segments in place before its marker, so a crash inside it
# must find a committed copy of each to roll back to.


def _on_platter(file):
    """A file's bytes as its disk blocks hold them, without charging."""
    disk = file.fs.disk
    image = b"".join(disk.peek_block(block_no) for block_no in file._blocks)
    return image[:file.size]


def test_a_batch_cut_after_a_compaction_recovers_the_compacted_file():
    system, corpus = _live_system()
    mfile = system.index.store.mfile
    wal = mfile.wal
    pipeline = IngestPipeline(system)
    pipeline.apply(
        adds=corpus.new_documents(6, after=corpus.base_count),
        deletes=[corpus.document(2)],
    )
    pipeline.compact()
    compacted = mfile.main.read(0, mfile.main.size)
    sealed = b"".join(g.read(0, g.size) for g in wal.generations)

    # A crash around an append finds the main file as it stood before
    # the append and the log cut just before or just after it.
    crashes = []
    log_writes = wal.log_writes

    def noting(writes):
        before, crashed = wal.generations[-1].size, _on_platter(mfile.main)
        log_writes(writes)
        crashes.extend([(before, crashed), (wal.generations[-1].size, crashed)])

    wal.log_writes = noting
    pipeline.apply(
        adds=corpus.new_documents(6, after=corpus.base_count + 6),
        deletes=[corpus.document(5)],
    )
    batch = b"".join(g.read(0, g.size) for g in wal.generations)
    assert len(crashes) > 20  # in-place rewrites, appends, the re-log, the marker
    for cut, crashed in crashes[:-1]:  # the last cut keeps the marker
        fs = _fresh_fs()
        fs.create("wal.base").write(0, sealed)
        log_file = fs.create("wal")
        log_file.write(0, batch[:cut])
        main = fs.create("main")
        main.write(0, crashed)
        report = recover_to_epoch(RedoLog(log_file), main)
        assert main.read(0, len(compacted)) == compacted, cut
        assert report.epoch == 1 and not report.torn_tail, cut
