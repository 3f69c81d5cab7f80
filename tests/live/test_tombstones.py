"""Tombstone deletes: exact statistics, invisible documents, clean folds.

A tombstone delete must make the document vanish from every evaluation
path — term-at-a-time (reference and fast), document-at-a-time
(streamed and pruned) — with dictionary df/ctf adjusted *exactly* (so
idf matches a rebuild without the document), all without decoding a
single record.  Folding the tombstones out must change nothing a query
can observe.
"""

import pytest

from repro.errors import IndexError_
from repro.fastpath import use_fastpath
from repro.inquery import (
    Document,
    DocumentAtATimeEngine,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    MnemeInvertedFile,
    RetrievalEngine,
    add_documents_incremental,
    fold_tombstones,
    tombstone_document_incremental,
)
from repro.inquery.indexer import CollectionIndex
from repro.mneme import RedoLog
from repro.simdisk import SimClock, SimDisk, SimFileSystem

VOCAB = [f"t{i}" for i in range(10)]

CORPUS = [
    ["t0", "t1", "t2", "t0", "t0"],
    ["t1", "t2", "t3"],
    ["t0", "t4", "t4", "t5"],
    ["t2", "t3", "t6", "t6", "t6"],
    ["t0", "t1", "t7"],
    ["t8", "t9", "t0", "t1"],
]


def docs(corpus=CORPUS):
    return [
        Document(doc_id, tokens=tokens)
        for doc_id, tokens in enumerate(corpus, start=1)
    ]


def build(documents, linked=False, wal=False):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    log = RedoLog(fs.create("invfile.wal")) if wal else None
    if linked:
        store = LinkedMnemeInvertedFile(
            fs, medium_max_bytes=24, chunk_bytes=64, wal=log
        )
    else:
        store = MnemeInvertedFile(fs, wal=log)
    builder = IndexBuilder(fs, store, stopwords=(), stem_fn=str)
    for document in documents:
        builder.add_document(document)
    return builder.finalize()


def rankings(index, queries, k=10):
    out = {}
    for query in queries:
        out[("taat", query)] = RetrievalEngine(index, top_k=k).run_query(
            query
        ).ranking
        out[("daat", query)] = DocumentAtATimeEngine(
            index, top_k=k
        ).run_query(query).ranking
        out[("prune", query)] = DocumentAtATimeEngine(
            index, top_k=k, prune="auto"
        ).run_query(query).ranking
    return out


QUERIES = ["#sum( t0 t1 t2 )", "#sum( t4 t6 )", "#wsum( 3 t0 1 t3 2 t6 )"]


@pytest.mark.parametrize("linked", [False, True])
@pytest.mark.parametrize("fast", [False, True])
def test_delete_equals_rebuild_without_the_document(linked, fast):
    documents = docs()
    live = build(documents, linked=linked)
    with use_fastpath(fast):
        tombstone_document_incremental(live, documents[2])  # doc 3
        got = rankings(live, QUERIES)
        reference = rankings(
            build([d for d in documents if d.doc_id != 3], linked=linked),
            QUERIES,
        )
    assert got == reference
    assert not any(doc == 3 for r in got.values() for doc, _ in r)


def test_dictionary_stats_are_exact_after_delete():
    documents = docs()
    live = build(documents)
    tombstone_document_incremental(live, documents[0])  # doc 1: t0 x3, t1, t2
    reference = build([d for d in documents if d.doc_id != 1])
    for term in VOCAB:
        entry = live.dictionary.lookup(term)
        expected = reference.dictionary.lookup(term)
        if entry is None:
            assert expected is None
            continue
        assert (entry.df, entry.ctf) == (
            (expected.df, expected.ctf) if expected is not None else (0, 0)
        ), term
    assert live.stats.documents == reference.stats.documents
    assert 1 not in live.doctable
    assert live.tombstones == {1}


def test_fold_tombstones_changes_nothing_observable():
    documents = docs()
    live = build(documents, linked=True)
    tombstone_document_incremental(live, documents[1])
    tombstone_document_incremental(live, documents[4])
    before = rankings(live, QUERIES)
    rewritten = fold_tombstones(live)
    assert rewritten > 0
    assert live.tombstones == set()
    assert rankings(live, QUERIES) == before
    # Folded records really lost the postings: exact max_tf everywhere.
    from repro.inquery.postings import decode_record

    for entry in live.dictionary.entries():
        if entry.storage_key == 0:
            continue
        postings = decode_record(live.store.fetch(entry.storage_key))
        assert all(doc not in (2, 5) for doc, _ in postings)
        assert entry.max_tf == max(
            (len(p) for _d, p in postings), default=0
        )


def test_delete_validation():
    documents = docs()
    live = build(documents)
    with pytest.raises(IndexError_):
        tombstone_document_incremental(
            live, Document(99, tokens=["t0"])
        )
    tombstone_document_incremental(live, documents[0])
    with pytest.raises(IndexError_):  # double delete
        tombstone_document_incremental(live, documents[0])
    with pytest.raises(IndexError_):  # token stream does not match
        tombstone_document_incremental(
            live, Document(2, tokens=["t1"])
        )
    with pytest.raises(IndexError_):  # tombstoned ids are not reusable
        add_documents_incremental(live, [Document(1, tokens=["t5"])])


def test_tombstones_survive_save_and_open():
    documents = docs()
    live = build(documents, linked=False)
    tombstone_document_incremental(live, documents[3])
    live.save()
    reopened = CollectionIndex.open(
        live.fs, live.store, stopwords=(), stem_fn=str
    )
    assert reopened.tombstones == {4}
    assert rankings(reopened, QUERIES) == rankings(live, QUERIES)


def test_empty_tombstone_set_costs_nothing():
    """No tombstones: the decode path is byte-for-byte the old one."""
    documents = docs()
    a, b = build(documents), build(documents)
    clock_a = a.fs.disk.clock.snapshot()
    ra = rankings(a, QUERIES)
    cost_a = a.fs.disk.clock.since(clock_a).wall_ms
    b.tombstones.clear()
    clock_b = b.fs.disk.clock.snapshot()
    rb = rankings(b, QUERIES)
    cost_b = b.fs.disk.clock.since(clock_b).wall_ms
    assert ra == rb
    assert cost_a == cost_b
