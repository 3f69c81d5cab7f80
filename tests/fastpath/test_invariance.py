"""The fast path's hard invariant: observationally identical evaluation.

Same rankings (bit-identical beliefs), same simulated clock totals,
same buffer statistics — across every query operator, on both engine
paths, over randomized corpora.  The fast path may only change real
wall-clock time.
"""

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.fastpath import use_fastpath
from repro.inquery import Document, IndexBuilder, MnemeInvertedFile, RetrievalEngine
from repro.inquery.invfile import BufferSizes
from repro.simdisk import SimClock, SimDisk, SimFileSystem

VOCAB = [f"t{i}" for i in range(10)]

corpus_st = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=25),
    min_size=1,
    max_size=20,
)

terms_st = st.lists(st.sampled_from(VOCAB + ["zzz"]), min_size=1, max_size=4)


def build(corpus, cached=False):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    store = MnemeInvertedFile(fs)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id, tokens in enumerate(corpus, start=1):
        builder.add_document(Document(doc_id, tokens=tokens))
    index = builder.finalize()
    if cached:
        store.attach_buffers(BufferSizes(small=4096, medium=65536, large=262144))
    return index


def run_both(corpus, query, cached=False):
    """Evaluate one query on both paths over identical fresh systems."""
    outcomes = []
    for fast in (False, True):
        with use_fastpath(fast):
            index = build(corpus, cached=cached)
            clock = index.fs.disk.clock
            start = clock.snapshot()
            result = RetrievalEngine(index, top_k=30).run_query(query)
            elapsed = clock.since(start)
            buffers = {
                name: (stats.refs, stats.hits)
                for name, stats in index.store.buffer_stats().items()
            }
            outcomes.append((result, elapsed, buffers))
    return outcomes


def assert_identical(outcomes):
    (ref, ref_clock, ref_buf), (fast, fast_clock, fast_buf) = outcomes
    assert fast.ranking == ref.ranking  # bit-identical beliefs and order
    assert fast.terms_looked_up == ref.terms_looked_up
    assert (fast_clock.wall_ms, fast_clock.user_ms, fast_clock.system_io_ms) == (
        ref_clock.wall_ms, ref_clock.user_ms, ref_clock.system_io_ms,
    )
    assert fast_buf == ref_buf


@given(corpus=corpus_st, terms=terms_st, op=st.sampled_from(
    ["sum", "and", "or", "max"]
))
@settings(max_examples=40, deadline=None)
def test_combination_operators_identical(corpus, terms, op):
    query = f"#{op}( " + " ".join(terms) + " )"
    assert_identical(run_both(corpus, query))


@given(
    corpus=corpus_st,
    terms=terms_st,
    weights=st.lists(st.integers(min_value=1, max_value=7), min_size=4, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_wsum_identical(corpus, terms, weights):
    inner = " ".join(f"{w} {t}" for w, t in zip(weights, terms))
    assert_identical(run_both(corpus, f"#wsum( {inner} )"))


@given(corpus=corpus_st, term=st.sampled_from(VOCAB))
@settings(max_examples=20, deadline=None)
def test_not_identical(corpus, term):
    assert_identical(run_both(corpus, f"#not( {term} )"))


@given(corpus=corpus_st, terms=st.lists(st.sampled_from(VOCAB), min_size=2, max_size=3))
@settings(max_examples=25, deadline=None)
def test_proximity_operators_identical(corpus, terms):
    # Proximity/synonym nodes reuse the reference implementation, but
    # their dict tables must mix with array tables transparently.
    inner = " ".join(terms)
    for query in (
        f"#phrase( {inner} )",
        f"#od2( {inner} )",
        f"#uw4( {inner} )",
        f"#syn( {inner} )",
        f"#sum( #phrase( {inner} ) {terms[0]} )",
    ):
        assert_identical(run_both(corpus, query))


@given(corpus=corpus_st, terms=terms_st)
@settings(max_examples=20, deadline=None)
def test_nested_queries_identical(corpus, terms):
    inner = " ".join(terms)
    query = f"#sum( #and( {inner} ) #or( {inner} ) #max( {inner} ) )"
    assert_identical(run_both(corpus, query))


@given(corpus=corpus_st, terms=terms_st)
@settings(max_examples=15, deadline=None)
def test_buffered_store_identical(corpus, terms):
    # With LRU buffers attached, hit patterns depend on the exact fetch
    # sequence — the fast path must not reorder or elide any access.
    query = "#sum( " + " ".join(terms) + " )"
    assert_identical(run_both(corpus, query, cached=True))


@given(corpus=corpus_st, terms=terms_st)
@settings(max_examples=15, deadline=None)
def test_repeated_queries_identical(corpus, terms):
    # The decode memo kicks in on repeats; charges must not change.
    query = "#sum( " + " ".join(terms) + " )"
    outcomes = []
    for fast in (False, True):
        with use_fastpath(fast):
            index = build(corpus, cached=True)
            clock = index.fs.disk.clock
            engine = RetrievalEngine(index, top_k=30)
            start = clock.snapshot()
            results = engine.run_batch([query, query, query])
            elapsed = clock.since(start)
            outcomes.append((results, elapsed))
    (ref, ref_clock), (fast, fast_clock) = outcomes
    assert [r.ranking for r in fast] == [r.ranking for r in ref]
    assert (fast_clock.wall_ms, fast_clock.user_ms) == (
        ref_clock.wall_ms, ref_clock.user_ms,
    )
