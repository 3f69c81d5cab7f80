"""Lifecycle integration: build, query, update, crash, recover, compact.

One index lives through everything the library supports, with
cross-backend equivalence checked at each stage.  This is the closest
test to "a downstream user's production week".
"""

import pytest

from repro.inquery import (
    CollectionIndex,
    DocumentAtATimeEngine,
    Document,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    MnemeInvertedFile,
    RetrievalEngine,
    add_documents_incremental,
    fold_tombstones,
    tombstone_document_incremental,
)
from repro.core import check_system
from repro.mneme import RedoLog, compact, recover
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import CollectionProfile, SyntheticCollection, term_string


@pytest.fixture(scope="module")
def collection():
    return SyntheticCollection(CollectionProfile(
        name="life", models="t", documents=300, mean_doc_length=90,
        doc_length_sigma=0.5, vocab_size=6000, seed=99,
    ))


def build(collection, make_store):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    store = make_store(fs)
    builder = IndexBuilder(fs, store, stem_fn=str)
    builder.add_documents(collection.iter_documents())
    index = builder.finalize()
    index.save()
    return index


QUERIES = [
    f"#sum( {term_string(1)} {term_string(3)} {term_string(10)} )",
    f"#sum( {term_string(0)} {term_string(5)} )",
    f"#wsum( 2 {term_string(2)} 1 {term_string(7)} )",
]


def rankings(index, top_k=15):
    engine = RetrievalEngine(index, top_k=top_k)
    return [engine.run_query(q).ranking for q in QUERIES]


def test_full_lifecycle(collection):
    wal_holder = {}

    def linked_store(fs):
        wal_holder["wal"] = RedoLog(fs.create("invfile.wal"))
        return LinkedMnemeInvertedFile(fs, wal=wal_holder["wal"], chunk_bytes=2048)

    index = build(collection, linked_store)
    wal = wal_holder["wal"]
    reference = build(collection, MnemeInvertedFile)

    # Stage 1: backend equivalence at build time.
    assert rankings(index) == rankings(reference)

    # Stage 2: DAAT agrees on flat queries.
    daat = DocumentAtATimeEngine(index, top_k=15)
    for query, expected in zip(QUERIES[:2], rankings(index)[:2]):
        assert daat.run_query(query).ranking == expected

    # Stage 3: incremental updates on both backends stay equivalent.
    new_docs = [
        Document(1001, tokens=[term_string(1), term_string(3), "brandnew"]),
        Document(1002, tokens=[term_string(0)] * 4 + ["brandnew"]),
    ]
    for doc in new_docs:
        add_documents_incremental(index, [doc])
        add_documents_incremental(reference, [doc])
    (doomed,) = [d for d in collection.iter_documents() if d.doc_id == 7]
    for live in (index, reference):
        tombstone_document_incremental(live, doomed)
        fold_tombstones(live)
    assert rankings(index) == rankings(reference)
    assert 1001 in RetrievalEngine(index).run_query("brandnew").doc_ids()

    # Stage 4: crash the main file; the WAL restores it.
    mfile = index.store.mfile
    image = mfile.main.read(0, mfile.main.size)
    mfile.main.write(16, b"\x00" * (mfile.main.size - 16))
    recover(wal, mfile.main)
    assert mfile.main.read(0, mfile.main.size) == image
    mfile.drop_user_caches()
    assert rankings(index) == rankings(reference)

    # Stage 5: compaction after the update churn.
    report = compact(mfile)
    assert report.bytes_reclaimed >= 0
    assert rankings(index) == rankings(reference)

    # Stage 6: the integrity checker signs off.
    audit = check_system(index, sample_every=3)
    assert audit.ok, [str(issue) for issue in audit.issues]

    # Stage 7: a fresh process opens the saved index and agrees.
    index.save()
    fs = index.fs
    reopened = CollectionIndex.open(
        fs, LinkedMnemeInvertedFile(fs, chunk_bytes=2048), stem_fn=str
    )
    assert rankings(reopened) == rankings(reference)
