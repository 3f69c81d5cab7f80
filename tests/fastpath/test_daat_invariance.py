"""Document-at-a-time fast path: observationally identical scoring.

The vectorized DAAT scorer (:mod:`repro.fastpath.daat`) batches each
stream's resident chunk into arrays, but must replay the reference
merge exactly: bit-identical rankings, the same ``peak_resident_bytes``
and ``documents_scored``, the same simulated-clock charges, the same
``I``/``A``/``B`` counters and buffer hits.  These properties check it
against both the reference DAAT engine and the term-at-a-time engine,
over generated flat ``#sum``/``#wsum`` queries on both Mneme backends.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.fastpath import use_fastpath
from repro.fastpath.beliefs import sorted_union
from repro.fastpath.daat import charge_user_bulk
from repro.inquery import (
    Document,
    DocumentAtATimeEngine,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    MnemeInvertedFile,
    RetrievalEngine,
)
from repro.inquery.invfile import BufferSizes
from repro.simdisk import SimClock, SimDisk, SimFileSystem

VOCAB = [f"t{i}" for i in range(12)]

corpus_st = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=20),
    min_size=1,
    max_size=25,
)

terms_st = st.lists(st.sampled_from(VOCAB + ["zzz"]), min_size=1, max_size=5)


def build(corpus, linked=False, cached=False):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    if linked:
        store = LinkedMnemeInvertedFile(fs, medium_max_bytes=24, chunk_bytes=64)
    else:
        store = MnemeInvertedFile(fs)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id, tokens in enumerate(corpus, start=1):
        builder.add_document(Document(doc_id, tokens=tokens))
    index = builder.finalize()
    if cached:
        store.attach_buffers(BufferSizes(small=4096, medium=65536, large=262144))
    return index


def observe_daat(corpus, query, fast, linked=False, cached=False):
    """Run one DAAT query on a fresh system; return every observable."""
    with use_fastpath(fast):
        index = build(corpus, linked=linked, cached=cached)
        store = index.store
        clock = index.fs.disk.clock
        disk_start = index.fs.disk.stats.copy()
        file_starts = [(f, f.stats.copy()) for f in store.files]
        lookups_start = store.record_lookups
        start = clock.snapshot()
        result = DocumentAtATimeEngine(index, top_k=30).run_query(query)
        elapsed = clock.since(start)
    return {
        "ranking": result.ranking,
        "terms_looked_up": result.terms_looked_up,
        "peak_resident_bytes": result.peak_resident_bytes,
        "documents_scored": result.documents_scored,
        "clock": (elapsed.wall_ms, elapsed.user_ms, elapsed.system_io_ms),
        "io_inputs": index.fs.disk.stats.blocks_read - disk_start.blocks_read,
        "file_accesses": sum(
            (f.stats - s).read_calls for f, s in file_starts
        ),
        "record_lookups": store.record_lookups - lookups_start,
        "bytes_from_file": sum(
            (f.stats - s).bytes_delivered for f, s in file_starts
        ),
        "buffers": {
            name: (stats.refs, stats.hits)
            for name, stats in store.buffer_stats().items()
        },
    }


def taat_ranking(corpus, query, linked=False):
    index = build(corpus, linked=linked)
    return RetrievalEngine(index, top_k=30).run_query(query).ranking


def assert_daat_invariant(corpus, query, linked=False, cached=False):
    ref = observe_daat(corpus, query, fast=False, linked=linked, cached=cached)
    fast = observe_daat(corpus, query, fast=True, linked=linked, cached=cached)
    assert fast == ref  # every observable, bit for bit
    # And both agree with term-at-a-time on the ranking itself.
    assert ref["ranking"] == taat_ranking(corpus, query, linked=linked)


@given(corpus=corpus_st, terms=terms_st, linked=st.booleans())
@settings(max_examples=40, deadline=None)
def test_daat_sum_identical(corpus, terms, linked):
    query = "#sum( " + " ".join(terms) + " )"
    assert_daat_invariant(corpus, query, linked=linked)


@given(
    corpus=corpus_st,
    terms=terms_st,
    weights=st.lists(st.integers(min_value=1, max_value=7), min_size=5, max_size=5),
    linked=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_daat_wsum_identical(corpus, terms, weights, linked):
    inner = " ".join(f"{w} {t}" for w, t in zip(weights, terms))
    assert_daat_invariant(corpus, f"#wsum( {inner} )", linked=linked)


@given(corpus=corpus_st, terms=terms_st)
@settings(max_examples=20, deadline=None)
def test_daat_buffered_store_identical(corpus, terms):
    # With LRU buffers attached, hit patterns depend on the exact fetch
    # and refill sequence — the windowed scorer must not reorder any.
    query = "#sum( " + " ".join(terms) + " )"
    assert_daat_invariant(corpus, query, linked=True, cached=True)


@given(corpus=corpus_st, term=st.sampled_from(VOCAB), linked=st.booleans())
@settings(max_examples=15, deadline=None)
def test_daat_single_term_identical(corpus, term, linked):
    # Single-term #sum skips the division — a distinct fold path.
    assert_daat_invariant(corpus, f"#sum( {term} )", linked=linked)


@given(corpus=corpus_st, linked=st.booleans())
@settings(max_examples=10, deadline=None)
def test_daat_all_missing_terms_identical(corpus, linked):
    assert_daat_invariant(corpus, "#sum( zzz yyy )", linked=linked)


# -- the bulk user-clock charge -----------------------------------------------

charge_st = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False) | st.just(0.0)


@given(
    start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    charges=st.lists(charge_st, max_size=300),
)
@settings(max_examples=200, deadline=None)
def test_charge_user_bulk_is_a_loop_of_charge_user(start, charges):
    # Magnitudes nine and six orders apart in one sequence: any
    # reordering or pairwise summation would round differently.
    looped, bulk = SimClock(), SimClock()
    looped.time.user_ms = bulk.time.user_ms = start
    for ms in charges:
        looped.charge_user(ms)
    charge_user_bulk(bulk, np.array(charges, dtype=np.float64))
    assert bulk.time.user_ms.hex() == looped.time.user_ms.hex()
    assert type(bulk.time.user_ms) is float
    assert (bulk.time.system_ms, bulk.time.io_ms) == (0.0, 0.0)


# -- the shared union of sorted doc-id runs -----------------------------------

run_st = st.lists(
    st.integers(min_value=0, max_value=300), max_size=40, unique=True
).map(lambda ids: np.array(sorted(ids), dtype=np.int64))


@given(runs=st.lists(run_st, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_sorted_union_is_unique_of_concatenate(runs):
    union = sorted_union(runs)
    expected = np.unique(np.concatenate(runs))
    assert union.dtype == expected.dtype
    assert union.tolist() == expected.tolist()
