"""A rejected mutation changes nothing.

An ingest batch is checked whole before any of it is written: a bad
delete after good adds must leave every machine's document table,
dictionary statistics, epoch and caches exactly as they were.  A single
tombstone delete is checked whole before it changes any statistic.
"""

import dataclasses

import pytest

from repro.core import materialize
from repro.errors import IndexError_
from repro.inquery import (
    Document,
    IndexBuilder,
    MnemeInvertedFile,
    tombstone_document_incremental,
)
from repro.serve import QueryService
from repro.simdisk import SimClock, SimDisk, SimFileSystem


def _state(index):
    return (
        dict(index.doctable.lengths),
        {e.term: (e.df, e.ctf) for e in index.dictionary.entries()},
        set(index.tombstones),
        dataclasses.astuple(index.stats),
    )


def test_bad_delete_rejects_the_whole_batch(prepared, corpus, config):
    service = QueryService(materialize(prepared, config))
    index = service.backend.index
    before = _state(index)
    cache_epoch = service.cache.epoch
    doc = corpus.document(5)
    wrong = Document(5, tokens=list(doc.tokens[:-1]) + ["zz-not-a-term"])
    adds = corpus.new_documents(2, after=corpus.base_count)
    with pytest.raises(IndexError_):
        service.ingest(adds=adds, deletes=[wrong])
    assert _state(index) == before
    assert len(index.doctable) == 120
    assert service.ingest_pipeline.epochs.epoch == 0
    assert service.cache.epoch == cache_epoch
    assert service.stats.ingests == 0
    # The same batch with the right document applies in full.
    report = service.ingest(adds=adds, deletes=[doc])
    assert (report.epoch, report.docs_added, report.docs_deleted) == (1, 2, 1)
    assert len(index.doctable) == 121


def test_a_batch_may_not_delete_what_it_adds(prepared, corpus, config):
    service = QueryService(materialize(prepared, config))
    index = service.backend.index
    before = _state(index)
    adds = corpus.new_documents(2, after=corpus.base_count)
    with pytest.raises(IndexError_):
        service.ingest(adds=adds, deletes=adds[1:])
    assert _state(index) == before
    assert service.ingest_pipeline.epochs.epoch == 0


def test_bad_tombstone_changes_no_statistic():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    builder = IndexBuilder(fs, MnemeInvertedFile(fs), stem_fn=str)
    builder.add_documents([
        Document(1, tokens=["t1", "t2", "t3"]),
        Document(2, tokens=["t1", "t2", "t3"]),
        Document(3, tokens=["t1", "t2"]),
        Document(4, tokens=["t1"]),
    ])
    index = builder.finalize()
    before = _state(index)
    with pytest.raises(IndexError_):
        tombstone_document_incremental(index, Document(2, tokens=["t1", "t2", "zz"]))
    assert _state(index) == before
    assert index.dictionary.lookup("t1").df == 4
    assert index.dictionary.lookup("t2").df == 3
    assert 2 in index.doctable and 2 not in index.tombstones


@pytest.mark.parametrize("shards", [0, 2])
def test_a_delete_sees_the_terms_its_batch_adds(prepared, corpus, config, shards):
    """The check accepts what applying adds-then-deletes accepts: a
    delete naming a term only this batch's adds bring in."""
    backend = (
        materialize(prepared, config, shards=shards, replicas=0)
        if shards else materialize(prepared, config)
    )
    service = QueryService(backend)
    doc = corpus.document(5)
    fresh = Document(corpus.base_count + 1, tokens=["zz-new", "zz-new"])
    odd = Document(5, tokens=list(doc.tokens[:-1]) + ["zz-new"])
    report = service.ingest(adds=[fresh], deletes=[odd])
    assert (report.docs_added, report.docs_deleted) == (1, 1)
