"""Write-path cost as counts, not seconds.

Two claims about how much of the store a mutation touches, stated in
numbers that repeat exactly:

* growing a chained record by one batch reads and rewrites its tail
  chunk (plus at most the chunks the tail overflows into) and the bound
  sidecar — the same handful of objects whether the chain has four
  chunks or forty — and the sidecar afterwards equals one rebuilt from
  the chunks on disk;
* folding tombstones visits records in storage order, so a physical
  segment is read once, not once per record that happens to sit in it.
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
from repro.mneme import chunk_ids, split_global
from repro.mneme.linked import _unpack_chunk
from repro.simdisk import SimClock, SimDisk, SimFileSystem

from ..transcode import chunk_stats

BATCH = 12


def chained_index(n_docs):
    """One hot term in every document: a chain of ~``n_docs / 30`` chunks."""
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
    store = LinkedMnemeInvertedFile(fs, medium_max_bytes=256, chunk_bytes=96)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id in range(1, n_docs + 1):
        builder.add_document(Document(doc_id, tokens=["hot", f"w{doc_id}"]))
    return builder.finalize()


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


def large_pool_traffic(store, action):
    """Calls ``action`` makes on the large pool, by operation."""
    pool, calls = store.large, Counter()

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
    calls = large_pool_traffic(
        store, lambda: add_documents_incremental(index, batch)
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


def test_fold_reads_each_segment_once(prepared):
    """Small segments and the Table 2 buffers they imply: far more
    segments than the buffers hold, so visiting order decides the reads."""
    config = config_by_name(
        "mneme-cache", medium_segment_bytes=512, medium_max_bytes=256
    )
    system = materialize(prepared, config)
    index, mfile = system.index, system.index.store.mfile
    documents = {d.doc_id: d for d in prepared.collection.iter_documents()}
    for doc_id in (3, 17, 40, 77):
        tombstone_document_incremental(index, documents[doc_id])
    cold_start(system)

    reads = []
    read_segment = mfile.read_segment

    def counted(offset, length):
        reads.append(offset)
        return read_segment(offset, length)

    mfile.read_segment = counted
    try:
        rewritten = fold_tombstones(index)
    finally:
        del mfile.read_segment
    segments = len(set(reads))
    assert segments > 20 and rewritten > 0
    assert len(reads) <= segments + rewritten
