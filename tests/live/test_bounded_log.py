"""Property test: the bounded redo log against an unbounded one.

The redo log keeps one copy of each segment it covers plus the open
epoch: every seal copies the records whose offset the batch did not
rewrite out of the older generation and then drops it.  A flat
WAL-backed ``mneme-linked`` service runs random schedules of adds,
deletes, mixed batches and compactions.  Beside it a test-only shadow
log keeps every write the store and the compaction log, latest copy per
offset, and is never bounded (a checkpoint empties it, as it empties
the log).  After every publish and every compaction:

* a replay of the bounded log onto zeros reproduces the main file;
* ``latest_for`` returns the shadow's copy on every offset the shadow
  covers, and the log covers no other.
"""

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.core import materialize
from repro.errors import ReadFailedError
from repro.mneme import EPOCH_MARKER_OFFSET, RedoLog, recover_to_epoch
from repro.serve import QueryService
from repro.simdisk import BLOCK_SIZE, SimClock, SimDisk, SimFileSystem

_HEADER = 16  # the main file's own header: written once, never logged

OPS = ("add", "delete", "mixed", "compact")

steps_st = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 50)), min_size=1, max_size=6
)


class ShadowLog:
    """Every logged write since the last checkpoint, latest per offset.

    Wraps the log's appends, leaving out those a seal makes: a re-log
    copies what the log already covered, so recording it would let the
    oracle agree with a wrong copy.
    """

    def __init__(self, wal):
        self.latest = {
            offset: data for offset, data in wal.records()[0]
            if offset != EPOCH_MARKER_OFFSET
        }
        self._sealing = False
        log_writes, seal, checkpoint = wal.log_writes, wal.seal, wal.checkpoint

        def logging(writes):
            writes = list(writes)
            if not self._sealing:
                self.latest.update(
                    (offset, data) for offset, data in writes
                    if offset != EPOCH_MARKER_OFFSET
                )
            log_writes(writes)

        def sealing(*args, **kwargs):
            self._sealing = True
            try:
                seal(*args, **kwargs)
            finally:
                self._sealing = False

        def checkpointing():
            self.latest.clear()
            checkpoint()

        wal.log_writes, wal.seal, wal.checkpoint = logging, sealing, checkpointing


def replay_onto_zeros(wal, size: int) -> bytes:
    """The main file a whole-epoch recovery of a copy of ``wal`` builds."""
    fs = SimFileSystem(SimDisk(SimClock()))
    for generation in wal.generations:
        fs.create(generation.name).write(0, generation.read(0, generation.size))
    blank = fs.create("main")
    blank.write(0, bytes(size))
    recover_to_epoch(RedoLog(fs.open(wal.generations[-1].name)), blank)
    return blank.read(0, size)


def check_log(mfile, shadow: ShadowLog) -> None:
    main = mfile.main.read(0, mfile.main.size)
    assert replay_onto_zeros(mfile.wal, len(main))[_HEADER:] == main[_HEADER:]
    covered = {
        offset for offset, _data in mfile.wal.records()[0]
        if offset != EPOCH_MARKER_OFFSET
    }
    assert covered == set(shadow.latest)
    for offset, data in shadow.latest.items():
        assert mfile.wal.latest_for(offset) == data, offset


def run_steps(service, corpus, steps):
    mfile = service.backend.index.store.mfile
    shadow = ShadowLog(mfile.wal)
    next_id = corpus.base_count + 4096  # clear of other tests' ids
    for op, pick in steps:
        if op == "compact":
            service.compact()
        else:
            live = sorted(service.ingest_pipeline.epochs.live_docs())
            adds = deletes = ()
            if op != "delete":
                adds = corpus.new_documents(1 + pick % 3, after=next_id)
                next_id += len(adds)
            if op != "add":
                deletes = corpus.documents_for(live[pick:][:2])
            service.ingest(adds=adds, deletes=deletes)
        check_log(mfile, shadow)


@given(steps=steps_st)
@example(steps=[("mixed", 0), ("compact", 0), ("add", 4), ("mixed", 7)])
@example(steps=[("add", 1), ("add", 2), ("delete", 3), ("add", 5)])
@settings(max_examples=12, deadline=None)
def test_bounded_log_replays_and_repairs_like_the_unbounded_one(
    steps, prepared, corpus, config
):
    run_steps(QueryService(materialize(prepared, config)), corpus, steps)


def _delete_twice(service, corpus):
    """Two delete-only batches; returns the main-file offsets they wrote."""
    mfile = service.backend.index.store.mfile
    written = []
    write_segment, append_segment = mfile.write_segment, mfile.append_segment

    def writing(offset, data):
        written.append(offset)
        write_segment(offset, data)

    def appending(data, align=1):
        written.append(append_segment(data, align))
        return written[-1]

    mfile.write_segment, mfile.append_segment = writing, appending
    for batch in range(2):
        live = sorted(service.ingest_pipeline.epochs.live_docs())
        service.ingest(deletes=corpus.documents_for(live[:1]))
    return written


def _first_segment(prepared, config):
    service = QueryService(materialize(prepared, config))
    mfile = service.backend.index.store.mfile
    offset = min(mfile._crcs)
    length = mfile._crcs[offset][0]
    block_no = mfile.main._blocks[offset // BLOCK_SIZE]
    return service, mfile, offset, mfile.main.read(offset, length), block_no


def test_a_segment_rotted_at_rest_repairs_after_two_publishes(
    prepared, corpus, config
):
    """Publishing never takes a segment's bytes from the main file, so a
    segment that went bad on the platter keeps its good logged copy."""
    service, mfile, offset, good, block_no = _first_segment(prepared, config)
    disk = mfile.fs.disk
    rotted = bytearray(disk.peek_block(block_no))
    rotted[offset % BLOCK_SIZE] ^= 0xFF
    disk.write_block(block_no, bytes(rotted))
    mfile.fs.chill()

    assert _delete_twice(service, corpus) == []
    assert mfile.wal.latest_for(offset) == good
    assert mfile.read_segment(offset, len(good)) == good
    assert mfile.resilience.read_repairs == 1


def test_an_unreadable_segment_does_not_stop_a_publish(prepared, corpus, config):
    """A bad block under a segment the batches leave alone does not
    half-publish an epoch."""
    service, mfile, offset, good, block_no = _first_segment(prepared, config)
    mfile.fs.disk.corrupt_block(block_no)
    mfile.fs.chill()

    epoch = service.ingest_pipeline.epochs.epoch
    assert _delete_twice(service, corpus) == []
    assert service.ingest_pipeline.epochs.epoch == mfile.wal.epoch == epoch + 2
    assert mfile.wal.latest_for(offset) == good
    with pytest.raises(ReadFailedError):
        mfile.read_segment(offset, len(good))
