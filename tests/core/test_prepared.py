"""Tests for the prepared-collection indexing path."""

import numpy as np
import pytest

from repro.core import config_by_name, materialize, prepare_collection
from repro.errors import ConfigError
from repro.inquery import (
    BTreeInvertedFile,
    IndexBuilder,
    decode_record,
)
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import CollectionProfile, SyntheticCollection, term_string


def test_records_sorted_by_term_id(tiny_prepared):
    ids = [tid for tid, _record in tiny_prepared.records]
    assert ids == sorted(ids)
    assert ids[0] == 1


def test_df_ctf_consistent_with_records(tiny_prepared):
    for term_id, record in tiny_prepared.records[:200]:
        postings = decode_record(record)
        assert tiny_prepared.df[term_id] == len(postings)
        assert tiny_prepared.ctf[term_id] == sum(len(p) for _d, p in postings)


def test_stats_totals(tiny_prepared):
    stats = tiny_prepared.stats
    assert stats.postings == tiny_prepared.collection.total_tokens
    assert stats.records == len(tiny_prepared.records)
    assert stats.documents == len(tiny_prepared.collection)
    assert 0.3 < stats.compression_rate < 0.9


def test_largest_record(tiny_prepared):
    assert tiny_prepared.largest_record == max(tiny_prepared.stats.record_sizes)


def test_docs_of_rank(tiny_prepared):
    counts = tiny_prepared.collection.term_counts()
    rank = int(counts.argmax())
    docs = tiny_prepared.docs_of_rank(rank)
    assert len(docs) == tiny_prepared.df[tiny_prepared.term_id_of_rank[rank]]
    assert tiny_prepared.docs_of_rank(10**7) == ()


def test_record_size_of_rank(tiny_prepared):
    rank = next(iter(tiny_prepared.term_id_of_rank))
    term_id = tiny_prepared.term_id_of_rank[rank]
    index = [tid for tid, _r in tiny_prepared.records].index(term_id)
    assert tiny_prepared.record_size_of_rank(rank) == len(tiny_prepared.records[index][1])
    assert tiny_prepared.record_size_of_rank(10**7) == 0


def test_flat_postings_arrive_in_doc_position_order(tiny_collection):
    """The indexing sort orders by term alone; that is the full (term,
    doc, position) sort only because the postings already come in (doc,
    position) order."""
    ranks, doc_ids, positions = tiny_collection.flat_postings()
    assert (np.diff(doc_ids) >= 0).all()
    same_doc = np.diff(doc_ids) == 0
    assert (np.diff(positions)[same_doc] > 0).all()
    assert (positions[1:][~same_doc] == 0).all() and positions[0] == 0
    by_term = np.argsort(ranks, kind="stable")
    assert np.array_equal(by_term, np.lexsort((positions, doc_ids, ranks)))


def test_prepared_terms_are_the_rank_strings(tiny_prepared):
    for rank, term_id in tiny_prepared.term_id_of_rank.items():
        assert tiny_prepared.terms[term_id - 1] == term_string(rank)


def test_empty_collection_rejected():
    empty = SyntheticCollection(
        CollectionProfile(
            name="e", models="t", documents=1, mean_doc_length=5,
            doc_length_sigma=0.0, vocab_size=10, seed=1,
        )
    )
    empty.doc_tokens[0] = empty.doc_tokens[0][:0]
    empty.doc_lengths[0] = 0
    with pytest.raises(ConfigError):
        prepare_collection(empty)


def test_prepared_path_matches_index_builder(tiny_collection, tiny_prepared):
    """The fast numpy path and the ordinary IndexBuilder agree exactly."""
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=256)
    builder = IndexBuilder(fs, BTreeInvertedFile(fs), stem_fn=str, run_limit=50_000)
    builder.add_documents(tiny_collection.iter_documents())
    reference = builder.finalize()

    assert len(reference.dictionary) == len(tiny_prepared.records)
    for rank, term_id in list(tiny_prepared.term_id_of_rank.items())[:300]:
        entry = reference.dictionary.lookup(term_string(rank))
        assert entry is not None
        assert entry.df == tiny_prepared.df[term_id]
        assert entry.ctf == tiny_prepared.ctf[term_id]
        index = term_id - 1  # records are dense in term-id order
        assert tiny_prepared.records[index][0] == term_id
        assert reference.store.fetch(entry.storage_key) == tiny_prepared.records[index][1]


def test_materialized_dictionary_matches(tiny_prepared):
    system = materialize(tiny_prepared, config_by_name("mneme-nocache"))
    assert len(system.index.dictionary) == len(tiny_prepared.records)
    for rank, term_id in list(tiny_prepared.term_id_of_rank.items())[:100]:
        entry = system.index.dictionary.lookup(term_string(rank))
        assert entry.term_id == term_id
        assert entry.df == tiny_prepared.df[term_id]
        record = system.index.store.fetch(entry.storage_key)
        assert decode_record(record) == decode_record(
            tiny_prepared.records[term_id - 1][1]
        )
