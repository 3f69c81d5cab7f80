"""Tests for incremental document addition and deletion.

The paper's classic INQUERY requires re-indexing the whole collection
for a single-document change; the object store makes per-record update
feasible.  These tests check the incremental path gives the same index
state as rebuilding from scratch.  A delete is a tombstone, made
physical by ``fold_tombstones``.
"""

import pytest

from repro.errors import IndexError_
from repro.inquery import (
    Document,
    RetrievalEngine,
    add_documents_incremental,
    decode_record,
    fold_tombstones,
    tombstone_document_incremental,
)

from .conftest import DOCS, build_index


NEW_DOC = Document(11, "d11", "buffer caching improves inverted file record retrieval")


def test_incremental_add_updates_records(any_index):
    add_documents_incremental(any_index, [NEW_DOC])
    entry = any_index.term_entry("buffer")
    postings = decode_record(any_index.store.fetch(entry.storage_key))
    assert 11 in dict(postings)


def test_incremental_add_searchable(any_index):
    add_documents_incremental(any_index, [NEW_DOC])
    engine = RetrievalEngine(any_index)
    result = engine.run_query("#and( buffer caching )")
    assert 11 in result.doc_ids()[:3]


def test_incremental_add_new_terms(any_index):
    doc = Document(12, text="zyzzyva zyzzyva appears nowhere else")
    add_documents_incremental(any_index, [doc])
    entry = any_index.term_entry("zyzzyva")
    assert entry is not None
    assert entry.df == 1
    assert entry.ctf == 2


def test_incremental_add_duplicate_id_rejected(any_index):
    with pytest.raises(IndexError_):
        add_documents_incremental(any_index, [Document(1, text="dup")])


def test_incremental_matches_full_rebuild():
    incremental = build_index("mneme")
    add_documents_incremental(incremental, [NEW_DOC])

    from repro.inquery import IndexBuilder, MnemeInvertedFile
    from repro.simdisk import SimClock, SimDisk, SimFileSystem

    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=128)
    builder = IndexBuilder(
        fs,
        MnemeInvertedFile(fs),
        stopwords=("the", "a", "in", "are", "and", "by", "on", "per"),
    )
    builder.add_documents(list(DOCS) + [NEW_DOC])
    rebuilt = builder.finalize()

    for entry in rebuilt.dictionary.entries():
        other = incremental.dictionary.lookup(entry.term)
        assert other is not None, entry.term
        assert (entry.df, entry.ctf) == (other.df, other.ctf)
        assert decode_record(rebuilt.store.fetch(entry.storage_key)) == decode_record(
            incremental.store.fetch(other.storage_key)
        )


def test_remove_document(any_index):
    tombstone_document_incremental(any_index, DOCS[4])
    rewritten = fold_tombstones(any_index)
    assert rewritten > 0
    assert 5 not in any_index.doctable
    entry = any_index.term_entry("disk")  # only d5 mentions disk
    postings = decode_record(any_index.store.fetch(entry.storage_key))
    assert 5 not in dict(postings)
    engine = RetrievalEngine(any_index)
    assert 5 not in engine.run_query("disk package").doc_ids()


def test_remove_unknown_rejected(any_index):
    with pytest.raises(IndexError_):
        tombstone_document_incremental(any_index, Document(999, text="ghost"))


def test_add_then_remove_restores_state(any_index):
    import copy

    df_before = {e.term: (e.df, e.ctf) for e in any_index.dictionary.entries()}
    add_documents_incremental(any_index, [NEW_DOC])
    tombstone_document_incremental(any_index, NEW_DOC)
    fold_tombstones(any_index)
    for entry in any_index.dictionary.entries():
        if entry.term in df_before:
            assert (entry.df, entry.ctf) == df_before[entry.term]
