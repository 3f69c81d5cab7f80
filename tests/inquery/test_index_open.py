"""Tests for the fresh-process index open path."""

import pytest

from repro.inquery import (
    BTreeInvertedFile,
    CollectionIndex,
    DEFAULT_STOPWORDS,
    Document,
    IndexBuilder,
    MnemeInvertedFile,
    RetrievalEngine,
)
from repro.simdisk import SimClock, SimDisk, SimFileSystem

DOCS = [
    Document(1, "a", "objects live in pools inside segments"),
    Document(2, "b", "segments transfer between disk and memory"),
    Document(3, "c", "pools define policies for object management"),
]


def build(backend):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    store = BTreeInvertedFile(fs) if backend == "btree" else MnemeInvertedFile(fs)
    builder = IndexBuilder(fs, store, stopwords=DEFAULT_STOPWORDS)
    builder.add_documents(DOCS)
    index = builder.finalize()
    index.save()
    return index


@pytest.mark.parametrize("backend", ["btree", "mneme"])
def test_open_restores_queryable_index(backend):
    original = build(backend)
    fs = original.fs
    store = BTreeInvertedFile(fs) if backend == "btree" else MnemeInvertedFile(fs)
    reopened = CollectionIndex.open(fs, store, stopwords=DEFAULT_STOPWORDS)
    assert len(reopened.dictionary) == len(original.dictionary)
    assert len(reopened.doctable) == len(original.doctable)
    original_ranking = RetrievalEngine(original).run_query("pools segments").ranking
    reopened_ranking = RetrievalEngine(reopened).run_query("pools segments").ranking
    assert reopened_ranking == original_ranking


def test_open_restores_scalar_stats():
    original = build("mneme")
    reopened = CollectionIndex.open(original.fs, MnemeInvertedFile(original.fs))
    assert reopened.stats.documents == original.stats.documents
    assert reopened.stats.postings == original.stats.postings
    assert reopened.stats.records == original.stats.records
    assert reopened.stats.compressed_bytes == original.stats.compressed_bytes
    # Per-record sizes are not persisted.
    assert reopened.stats.record_sizes == []


def test_open_then_update_then_reopen():
    from repro.inquery import add_documents_incremental

    original = build("mneme")
    fs = original.fs
    first = CollectionIndex.open(fs, MnemeInvertedFile(fs), stopwords=DEFAULT_STOPWORDS)
    add_documents_incremental(first, [Document(9, "d", "buffers hold segments")])
    first.save()
    second = CollectionIndex.open(fs, MnemeInvertedFile(fs), stopwords=DEFAULT_STOPWORDS)
    assert 9 in second.doctable
    assert 9 in RetrievalEngine(second).run_query("buffers").doc_ids()
