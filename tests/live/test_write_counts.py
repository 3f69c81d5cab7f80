"""Write-path cost as counts, not seconds.

Two claims about how much of the store a mutation touches, stated in
numbers that repeat exactly:

* growing a chained record by one batch reads and rewrites its tail
  chunk (plus at most the chunks the tail overflows into) and the bound
  sidecar — the same handful of objects whether the chain has four
  chunks or forty — and the sidecar afterwards equals one rebuilt from
  the chunks on disk;
* folding tombstones visits records in storage order, so a physical
  segment is read once, not once per record that happens to sit in it;
* an ingest batch grows existing records in storage order too, and
  reads each grown record once, and a medium segment it closes stays
  buffered;
* a tombstone delete writes nothing to the disk;
* the blocks an epoch's rewrites and a compaction drop are reused, so
  live ingest stops growing the disk.
"""

from collections import Counter

import pytest

from repro.core import materialize
from repro.core.config import config_by_name
from repro.core.metrics import cold_start
from repro.inquery import (
    Document,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    add_documents_incremental,
    fold_tombstones,
    tombstone_document_incremental,
)
from repro.inquery.bounds import decode_chunk_bounds
from repro.inquery.postings import decode_record
from repro.mneme import LRUBuffer, chunk_ids, split_global
from repro.mneme.linked import _unpack_chunk
from repro.serve import QueryService
from repro.simdisk import SimClock, SimDisk, SimFileSystem

from ..transcode import chunk_stats

BATCH = 12


def linked_index(n_docs, tokens):
    """``tokens(doc_id)`` for documents 1..``n_docs``, on a linked store
    that chains every record over 256 bytes in 96-byte chunks."""
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
    store = LinkedMnemeInvertedFile(fs, medium_max_bytes=256, chunk_bytes=96)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id in range(1, n_docs + 1):
        builder.add_document(Document(doc_id, tokens=tokens(doc_id)))
    return builder.finalize()


def chained_index(n_docs):
    """One hot term in every document: a chain of ~``n_docs / 30`` chunks."""
    return linked_index(n_docs, lambda doc_id: ["hot", f"w{doc_id}"])


def assert_sidecar_matches_chain(store, entry):
    """The stored sidecar equals one rebuilt from the chunks on disk;
    returns the chain's chunk ids and decoded slices."""
    chunks = chunk_ids(store.large, split_global(entry.storage_key)[1])
    slices = [
        decode_record(_unpack_chunk(store.large.fetch(oid))[1]) for oid in chunks
    ]
    assert decode_chunk_bounds(store._read_bounds(entry.bounds_key)) == (
        chunks, *chunk_stats(slices)
    ), entry.term
    return chunks, slices


def pool_traffic(pool, action):
    """Calls ``action`` makes on one Mneme pool, by operation."""
    calls = Counter()

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    names = ("create", "fetch", "modify", "delete")
    for name in names:
        setattr(pool, name, counted(name, getattr(pool, name)))
    try:
        action()
    finally:
        for name in names:
            delattr(pool, name)
    return calls


@pytest.mark.parametrize("n_docs", [130, 1300])
def test_growing_a_chain_touches_its_tail_and_sidecar_only(n_docs):
    index = chained_index(n_docs)
    store, entry = index.store, index.term_entry("hot")
    key = entry.storage_key
    head = split_global(key)[1]
    chunks_before = chunk_ids(store.large, head)
    assert len(chunks_before) >= n_docs // 40   # 4 chunks, or 40

    batch = [
        Document(n_docs + j, tokens=["hot", f"new{j}"]) for j in range(1, BATCH + 1)
    ]
    calls = pool_traffic(
        store.large, lambda: add_documents_incremental(index, batch)
    )
    # The tail is fetched and rewritten; twelve postings overflow it into
    # at most one new chunk; nothing is deleted.  No term depends on N.
    assert calls["fetch"] == 1 and calls["modify"] == 1
    assert calls["create"] <= 1 and calls["delete"] == 0
    assert entry.storage_key == key
    assert entry.df == n_docs + BATCH

    chunks, slices = assert_sidecar_matches_chain(store, entry)
    assert chunks[:len(chunks_before)] == chunks_before
    assert [doc for piece in slices for doc, _p in piece] == \
        list(range(1, n_docs + BATCH + 1))


def test_growing_an_unchained_record_fetches_it_once():
    # "warm" in every tenth document: a medium record, not a chain.
    index = linked_index(
        100, lambda doc_id: [f"w{doc_id}"] + ["warm"] * (doc_id % 10 == 0)
    )
    store, entry = index.store, index.term_entry("warm")
    key = entry.storage_key
    assert store._pool_for(store.fetch(key)) is store.medium

    calls = pool_traffic(store.medium, lambda: add_documents_incremental(
        index, [Document(101, tokens=["warm", "warm", "new"])]
    ))
    # The bytes append_postings fetched decide modify-or-re-home: the
    # record is read once, and modified where it lies.
    assert calls["fetch"] == 1 and calls["modify"] == 1
    assert entry.storage_key == key and entry.df == 11


def small_segment_system(prepared):
    """Small segments and the Table 2 buffers they imply: far more
    segments than the buffers hold, so visiting order decides the reads."""
    config = config_by_name(
        "mneme-cache", medium_segment_bytes=512, medium_max_bytes=256
    )
    return materialize(prepared, config)


def segment_reads(mfile, action, note=None):
    """``action``'s result and the offsets of the segments it read
    (each paired with ``note()`` when given)."""
    reads = []
    read_segment = mfile.read_segment

    def counted(offset, length):
        reads.append(offset if note is None else (offset, note()))
        return read_segment(offset, length)

    mfile.read_segment = counted
    try:
        return action(), reads
    finally:
        del mfile.read_segment


def test_fold_reads_each_segment_once(prepared):
    system = small_segment_system(prepared)
    index = system.index
    documents = {d.doc_id: d for d in prepared.collection.iter_documents()}
    for doc_id in (3, 17, 40, 77):
        tombstone_document_incremental(index, documents[doc_id])
    cold_start(system)

    rewritten, reads = segment_reads(
        index.store.mfile, lambda: fold_tombstones(index)
    )
    segments = len(set(reads))
    assert segments > 20 and rewritten > 0
    assert len(reads) <= segments + rewritten


def test_ingest_reads_each_segment_once(prepared, corpus):
    system = small_segment_system(prepared)
    index, store = system.index, system.index.store
    cold_start(system)
    pools = (store.small, store.medium, store.large)
    creating = [False]

    def flagged(create):
        def call(data):
            creating[0] = True
            try:
                return create(data)
            finally:
                creating[0] = False
        return call

    for pool in pools:
        pool.create = flagged(pool.create)
    batch = corpus.new_documents(BATCH, after=len(prepared.collection))
    try:
        _tfs, reads = segment_reads(
            store.mfile,
            lambda: add_documents_incremental(index, batch),
            note=lambda: creating[0],
        )
    finally:
        for pool in pools:
            del pool.create
    # Growing records reads each segment at most once.  The only other
    # reads come from creates (a relocated or fresh record re-opening
    # its pool's last segment), which the grow may read again later.
    grown = [offset for offset, in_create in reads if not in_create]
    assert len(set(offset for offset, _ in reads)) > 20
    assert len(grown) == len(set(grown))


def test_a_tombstone_delete_writes_no_disk_block(prepared, config):
    system = materialize(prepared, config)
    index, disk = system.index, system.fs.disk
    documents = {d.doc_id: d for d in prepared.collection.iter_documents()}
    written = disk.stats.blocks_written
    for doc_id in (3, 17, 40, 77):
        tombstone_document_incremental(index, documents[doc_id])
    assert disk.stats.blocks_written == written
    assert index.tombstones == {3, 17, 40, 77}


def test_a_closed_medium_segment_stays_buffered(prepared, corpus):
    # 2 KB segments and a medium buffer that holds them all: a segment a
    # create re-opened, filled and closed is still buffered when a later
    # grow in the batch fetches a record in it.  (The parent read it
    # back from disk.)  Under the Table 2 floor of three segments the
    # buffer may evict it first; that re-read is the buffer policy's.
    config = config_by_name(
        "mneme-cache", medium_segment_bytes=2048, medium_max_bytes=1024
    )
    system = materialize(prepared, config)
    store = system.index.store
    cold_start(system)
    store.medium.attach_buffer(LRUBuffer(1 << 20))
    batch = corpus.new_documents(BATCH, after=len(prepared.collection))
    _tfs, reads = segment_reads(
        store.mfile, lambda: add_documents_incremental(system.index, batch)
    )
    assert reads and len(reads) == len(set(reads))


def test_live_ingest_reuses_the_blocks_it_frees(prepared, corpus, config):
    # Each epoch rewrites the dictionary, document table and tombstone
    # file, each seal drops the log's older generation, and the
    # compaction replaces the main file and restarts the log as one copy
    # of it.  The blocks those drop are reused, so after the compaction
    # the device grows only with what the files hold (without the free
    # list it grew ~10 blocks a batch).  Its one transient is a seal's: the dropped
    # generation is held beside the new one until the marker lands.  So
    # the mark stays within the files' blocks at rest plus the largest
    # generation a seal dropped.  The compaction's own peak holds the old
    # and new main file but no log.
    service = QueryService(materialize(prepared, config))
    fs = service.backend.fs
    wal = service.backend.index.store.mfile.wal
    next_id, live = corpus.base_count, sorted(corpus.base_ids)

    def ingest():
        nonlocal next_id, live
        adds = corpus.new_documents(6, after=next_id)
        service.ingest(adds=adds, deletes=corpus.documents_for(live[:2]))
        next_id, live = next_id + 6, live[2:]

    def held():
        return [fs.open(name).block_count for name in fs.names()]

    for _ in range(3):
        ingest()
    service.compact()
    peaks, dropped = [fs.disk.blocks_allocated], []
    for _ in range(3):
        (base,) = wal.generations[:-1]  # the generation this seal drops
        dropped.append(base.block_count)
        ingest()
        peaks.append(sum(held()) + dropped[-1])
    assert fs.disk.blocks_allocated <= max(peaks)
    assert fs.disk.blocks_allocated <= sum(held()) + max(dropped)
