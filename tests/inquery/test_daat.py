"""Tests for the linked inverted file and document-at-a-time engine."""

import pytest

from repro.errors import QueryError
from repro.inquery import (
    DocumentAtATimeEngine,
    Document,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    RetrievalEngine,
    decode_record,
)
from repro.inquery.bounds import decode_chunk_bounds
from repro.simdisk import SimClock, SimDisk, SimFileSystem


def make_index(linked=True, docs=120, chunk_bytes=128):
    """A collection with one very frequent term so a chain forms."""
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
    store = (
        LinkedMnemeInvertedFile(fs, chunk_bytes=chunk_bytes)
        if linked
        else __import__("repro.inquery", fromlist=["MnemeInvertedFile"]).MnemeInvertedFile(fs)
    )
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id in range(1, docs + 1):
        tokens = ["common"] * (doc_id % 4 + 1) + [f"term{doc_id % 7}", f"rare{doc_id}"]
        builder.add_document(Document(doc_id, tokens=tokens))
    return builder.finalize()


@pytest.fixture(scope="module")
def linked_index():
    return make_index(linked=True)


@pytest.fixture(scope="module")
def plain_index():
    return make_index(linked=False)


class TestLinkedInvertedFile:
    def test_large_records_chained(self, linked_index):
        store = linked_index.store
        entry = linked_index.term_entry("common")
        # "common" has ~120 postings; with a 128-byte chunk target it
        # spans multiple chunks even though it's under the 4 KB pool
        # threshold?  No: chains form only above the threshold, so this
        # record is medium.  Check routing is unchanged for it.
        record = store.fetch(entry.storage_key)
        assert len(decode_record(record)) == entry.df

    def test_fetch_reassembles_chains(self):
        # Force chaining by dropping the medium threshold.
        fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=64, chunk_bytes=96)
        builder = IndexBuilder(fs, store, stem_fn=str)
        for doc_id in range(1, 80):
            builder.add_document(Document(doc_id, tokens=["hot", f"cold{doc_id}"]))
        index = builder.finalize()
        entry = index.term_entry("hot")
        record = store.fetch(entry.storage_key)
        postings = decode_record(record)
        assert [d for d, _p in postings] == list(range(1, 80))
        # The chain spans several chunks.
        from repro.mneme import chunk_ids, split_global

        _fn, oid = split_global(entry.storage_key)
        assert len(chunk_ids(store.large, oid)) >= 3

    def test_stream_resident_smaller_than_record(self):
        fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=64, chunk_bytes=96)
        builder = IndexBuilder(fs, store, stem_fn=str)
        for doc_id in range(1, 120):
            builder.add_document(Document(doc_id, tokens=["hot", f"x{doc_id}"]))
        index = builder.finalize()
        entry = index.term_entry("hot")
        full = len(store.fetch(entry.storage_key))
        stream = store.stream_postings(entry.storage_key)
        postings = list(stream)
        assert len(postings) == entry.df
        # One chunk resident at a time, far below the whole record.
        assert 0 < max(96, 1) < full


class TestDAATEngine:
    QUERIES = [
        "common",
        "#sum( common term1 )",
        "#sum( common term1 term2 rare5 )",
        "#wsum( 3 common 1 term3 )",
        "#sum( nothere common )",
    ]

    def test_matches_taat_rankings(self, linked_index):
        taat = RetrievalEngine(linked_index, top_k=20)
        daat = DocumentAtATimeEngine(linked_index, top_k=20)
        for query in self.QUERIES:
            expected = taat.run_query(query).ranking
            got = daat.run_query(query).ranking
            assert got == expected, query

    def test_matches_taat_on_plain_backend(self, plain_index):
        taat = RetrievalEngine(plain_index, top_k=15)
        daat = DocumentAtATimeEngine(plain_index, top_k=15)
        for query in self.QUERIES:
            assert daat.run_query(query).ranking == taat.run_query(query).ranking

    def test_rejects_structured_operators(self, linked_index):
        daat = DocumentAtATimeEngine(linked_index)
        for bad in ("#and( a b )", "#sum( a #and( b c ) )", "#phrase( a b )"):
            with pytest.raises(QueryError):
                daat.run_query(bad)

    def test_unknown_terms_only(self, linked_index):
        daat = DocumentAtATimeEngine(linked_index)
        result = daat.run_query("#sum( zzz qqq )")
        assert result.ranking == []
        assert result.documents_scored == 0

    def test_documents_scored_counts_union(self, linked_index):
        daat = DocumentAtATimeEngine(linked_index, top_k=5)
        result = daat.run_query("common")
        assert result.documents_scored == linked_index.term_entry("common").df
        assert len(result.ranking) == 5

    def test_peak_resident_reported(self, linked_index):
        daat = DocumentAtATimeEngine(linked_index)
        result = daat.run_query("#sum( common term1 )")
        assert result.peak_resident_bytes > 0

    def test_daat_peak_memory_beats_taat_records(self):
        """The paper's motivation: chains bound resident record bytes."""
        fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=512)
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=64, chunk_bytes=128)
        builder = IndexBuilder(fs, store, stem_fn=str)
        for doc_id in range(1, 400):
            builder.add_document(
                Document(doc_id, tokens=["alpha", "beta", f"z{doc_id}"])
            )
        index = builder.finalize()
        total_record_bytes = sum(
            len(store.fetch(index.term_entry(t).storage_key))
            for t in ("alpha", "beta")
        )
        daat = DocumentAtATimeEngine(index)
        result = daat.run_query("#sum( alpha beta )")
        assert result.peak_resident_bytes < total_record_bytes / 3

    def test_batch(self, linked_index):
        daat = DocumentAtATimeEngine(linked_index)
        results = daat.run_batch(["common", "term1"])
        assert len(results) == 2


class TestLinkedUpdates:
    def test_update_record_rechains(self):
        fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=64, chunk_bytes=96)
        builder = IndexBuilder(fs, store, stem_fn=str)
        for doc_id in range(1, 60):
            builder.add_document(Document(doc_id, tokens=["hot", f"y{doc_id}"]))
        index = builder.finalize()
        from repro.inquery import encode_record

        entry = index.term_entry("hot")
        new_postings = [(d, (0,)) for d in range(1, 100)]
        new_key = store.update_record(entry.storage_key, encode_record(new_postings))
        assert decode_record(store.fetch(new_key)) == new_postings

    def test_append_postings_extends_chain(self):
        fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=64, chunk_bytes=96)
        builder = IndexBuilder(fs, store, stem_fn=str)
        for doc_id in range(1, 60):
            builder.add_document(Document(doc_id, tokens=["hot", f"w{doc_id}"]))
        index = builder.finalize()
        entry = index.term_entry("hot")
        before = decode_record(store.fetch(entry.storage_key))
        extra = [(200, (0, 3)), (201, (5,))]
        key, bounds_key = store.append_postings(
            entry.storage_key, extra, entry.bounds_key
        )
        assert key == entry.storage_key  # grown in place
        after = decode_record(store.fetch(key))
        assert after == before + extra
        # The sidecar was rewritten with the chain, not left stale.
        _oids, last_docs, max_tfs = decode_chunk_bounds(
            store._read_bounds(bounds_key)
        )
        assert last_docs[-1] == 201 and max(max_tfs) == 2

    def test_incremental_document_add_on_linked_backend(self):
        from repro.inquery import add_documents_incremental

        fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=64, chunk_bytes=96)
        builder = IndexBuilder(fs, store, stem_fn=str)
        for doc_id in range(1, 50):
            builder.add_document(Document(doc_id, tokens=["hot", f"v{doc_id}"]))
        index = builder.finalize()
        add_documents_incremental(index, [Document(99, tokens=["hot", "fresh"])])
        entry = index.term_entry("hot")
        postings = decode_record(store.fetch(entry.storage_key))
        assert 99 in dict(postings)
        engine = RetrievalEngine(index)
        assert 99 in engine.run_query("fresh").doc_ids()
