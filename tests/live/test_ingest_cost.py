"""An ingest epoch pays for what it touched.

* A one-document ingest into a built ``cacm-s`` index repacks only the
  dictionary chains of the terms it touched, and only the new document
  table row — not every entry and row.
* A term grown in consecutive batches walks its document and tf columns
  once: the append-bounds memo answers every later append.
* The memo is a pure function of the record bytes: a hit equals the
  recomputed bounds, and the memo never holds more than its budget.
"""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import config_by_name, materialize, prepare_collection
from repro.inquery import DocTable, Document, HashDictionary, MnemeInvertedFile
from repro.inquery import postings as postings_module
from repro.inquery.dictionary import _hash
from repro.inquery.normalize import normalize_term
from repro.inquery.postings import (
    APPEND_BOUNDS_BYTES,
    _column_bounds,
    append_bounds_memo,
    decode_header,
    encode_record,
    merge_records,
)
from repro.lru import WeightedLRU
from repro.live import LiveCorpus
from repro.serve import QueryService
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import PROFILES, SyntheticCollection


class _Counting:
    """Stands in for a ``struct.Struct`` and counts ``pack`` calls."""

    def __init__(self, inner):
        self.inner, self.packed = inner, 0

    def pack(self, *fields):
        self.packed += 1
        return self.inner.pack(*fields)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="module")
def cacm():
    collection = SyntheticCollection(PROFILES["cacm-s"])
    return prepare_collection(collection), LiveCorpus(collection)


@pytest.fixture()
def cacm_service(cacm):
    prepared, corpus = cacm
    config = config_by_name("mneme-linked", use_wal=True)
    return QueryService(materialize(prepared, config)), corpus


def _terms(index, document):
    normalized = (
        normalize_term(token, index.stopwords, index.stem_fn)
        for token in document.tokens
    )
    return {term for term in normalized if term is not None}


def _column_bounds_calls(monkeypatch):
    calls = []

    def counted(record, df):
        calls.append(df)
        return _column_bounds(record, df)

    monkeypatch.setattr(postings_module, "_column_bounds", counted)
    return calls


def test_one_document_ingest_repacks_only_the_chains_it_touched(
    cacm_service, monkeypatch
):
    service, corpus = cacm_service
    index = service.backend.index
    first, second = corpus.new_documents(2, after=corpus.base_count)
    service.ingest(adds=[first])  # the first save packs the whole image
    entries = _Counting(HashDictionary._REC_V2)
    rows = _Counting(DocTable._REC)
    monkeypatch.setattr(HashDictionary, "_REC_V2", entries)
    monkeypatch.setattr(DocTable, "_REC", rows)
    service.ingest(adds=[second])
    dictionary = index.dictionary
    buckets = {_hash(term) % dictionary.bucket_count for term in _terms(index, second)}
    in_touched_chains = sum(
        _hash(entry.term) % dictionary.bucket_count in buckets
        for entry in dictionary.entries()
    )
    assert entries.packed == in_touched_chains
    assert entries.packed < len(dictionary) // 20
    assert rows.packed == 1


def test_second_consecutive_append_of_a_term_walks_no_columns(monkeypatch):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    store = MnemeInvertedFile(fs)
    key = store.add_record(1, encode_record([(d, (1, 2)) for d in range(1, 200)]))
    calls = _column_bounds_calls(monkeypatch)
    key, _bounds = store.append_postings(key, [(500, (3,))])
    assert calls == [199]
    key, _bounds = store.append_postings(key, [(501, (4, 9))])
    key, _bounds = store.append_postings(key, [(502, (1,)), (503, (2,))])
    assert calls == [199]
    assert store.fetch(key) == encode_record(
        [(d, (1, 2)) for d in range(1, 200)]
        + [(500, (3,)), (501, (4, 9)), (502, (1,)), (503, (2,))]
    )


def test_consecutive_batches_growing_the_same_terms_walk_no_columns(
    cacm_service, monkeypatch
):
    service, corpus = cacm_service
    index = service.backend.index
    first = corpus.new_documents(1, after=corpus.base_count)[0]
    again = Document(first.doc_id + 1, tokens=first.tokens)
    service.ingest(adds=[first])
    calls = _column_bounds_calls(monkeypatch)
    report = service.ingest(adds=[again])
    assert report.mutated_terms[0] == tuple(sorted(_terms(index, first)))
    assert calls == []


@st.composite
def postings_lists(draw, first=1, max_df=150):
    df = draw(st.integers(1, max_df))
    span = draw(st.sampled_from([4 * max_df, 10**6]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    docs = sorted(rng.sample(range(first, first + span), df))
    return [
        (doc, tuple(sorted(rng.sample(range(60), rng.randint(1, 6)))))
        for doc in docs
    ]


@given(
    base=postings_lists(),
    batches=st.lists(st.integers(1, 5), min_size=1, max_size=8),
    budget=st.sampled_from([256, 2048, APPEND_BOUNDS_BYTES]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_memo_hits_equal_recomputed_bounds_and_the_memo_keeps_its_budget(
    base, batches, budget, seed
):
    rng = random.Random(seed)
    memo = (
        append_bounds_memo() if budget == APPEND_BOUNDS_BYTES
        else WeightedLRU(budget)
    )
    assert memo.budget == budget
    postings = list(base)
    record = encode_record(postings)
    for size in batches:
        last = postings[-1][0]
        extra = [
            (last + gap, (rng.randint(0, 9),))
            for gap in sorted(rng.sample(range(1, 40), size))
        ]
        if memo.keys() and rng.random() < 0.3:
            # Another record's append, evicting under a small budget.
            other = encode_record([(rng.randint(1, 99), (0,))])
            merge_records(other, [(1000, (1,))], memo)
        if budget == APPEND_BOUNDS_BYTES and len(postings) > len(base):
            assert record in memo  # the grown record's bounds, from its append
        grown = merge_records(record, extra, memo)
        assert record not in memo  # superseded: its entry went to the append
        record = grown
        postings += extra
        assert record == encode_record(postings)
        assert memo.held <= memo.budget
        for key, bounds in zip(memo.keys(), memo.values()):
            assert bounds == _column_bounds(key, decode_header(key).df)
