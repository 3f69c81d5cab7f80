"""Durability tests: incremental updates survive a reopen and a crash."""

from repro.inquery import (
    CollectionIndex,
    DocTable,
    Document,
    HashDictionary,
    MnemeInvertedFile,
    RetrievalEngine,
    add_documents_incremental,
    decode_record,
)
from repro.mneme import RedoLog, recover

from .conftest import build_index


def reopen(index):
    """A fresh process view: new store and dictionary from the files."""
    fs = index.fs
    store = MnemeInvertedFile(fs)
    return CollectionIndex(
        fs=fs,
        dictionary=HashDictionary.load(fs.open("index.dict")),
        doctable=DocTable.load(fs.open("index.docs")),
        store=store,
        stats=index.stats,
        stopwords=index.stopwords,
        stem_fn=index.stem_fn,
    )


def test_incremental_add_is_durable_without_explicit_flush():
    index = build_index("mneme")
    add_documents_incremental(
        index, [Document(11, "d11", "durability matters for incremental updates")]
    )
    index.save()  # persists the dictionary/doctable; records were already flushed
    fresh = reopen(index)
    entry = fresh.term_entry("durability")
    assert entry is not None
    record = fresh.store.fetch(entry.storage_key)
    assert 11 in dict(decode_record(record))
    engine = RetrievalEngine(fresh)
    assert 11 in engine.run_query("#and( durability incremental )").doc_ids()


def test_incremental_add_reaches_the_wal():
    from repro.inquery import DEFAULT_STOPWORDS, IndexBuilder
    from repro.simdisk import SimClock, SimDisk, SimFileSystem

    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    wal = RedoLog(fs.create("invfile.wal"))
    store = MnemeInvertedFile(fs, wal=wal)
    builder = IndexBuilder(fs, store, stopwords=DEFAULT_STOPWORDS)
    builder.add_document(Document(1, "a", "contract dispute over licensing"))
    index = builder.finalize()
    records_after_build = len(wal.records()[0])
    add_documents_incremental(index, [Document(2, "b", "another dispute entirely")])
    records_after_add = len(wal.records()[0])
    assert records_after_add > records_after_build

    # Crash: lose the main file body; the redo log restores it.
    image = store.mfile.main.read(0, store.mfile.main.size)
    store.mfile.main.write(16, b"\x00" * (store.mfile.main.size - 16))
    assert store.mfile.main.read(0, store.mfile.main.size) != image
    recover(wal, store.mfile.main)
    assert store.mfile.main.read(0, store.mfile.main.size) == image
