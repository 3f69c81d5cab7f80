"""The decode memo: bounded, read-only, and invisible.

Every fast-path array read decodes through its engine's
:class:`~repro.fastpath.codec.DecodeCache` — TAAT term reads, DAAT
stream chunks and MaxScore blocks alike.  The memo may remove real
decode time and nothing else, so an engine that serves a query list
twice (the second time largely from the memo) must match, bit for bit,
engines built fresh for every query (cold memo): rankings, pruning
counters, resident peaks, lookups and the simulated clock — across
stores, sharding, tombstones, a warm term-cache tape, a stuck read and
an ingest batch that rewrites a memoized chain's tail.
"""

import functools
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import config_by_name, materialize, prepare_collection
from repro.core.metrics import cold_start
from repro.fastpath import codec, use_fastpath, windows
from repro.fastpath.codec import DecodeCache, encode_record_fast
from repro.fastpath.daat import _ArrayStream
from repro.fastpath.prune import _Evaluator
from repro.faults import FaultEvent, FaultPlan
from repro.inquery import DocumentAtATimeEngine, RetrievalEngine
from repro.inquery.daat import daat_queries
from repro.inquery.engine import _FastIndexProvider
from repro.live import IngestPipeline, LiveCorpus
from repro.serve.termcache import TermCacheFleet
from repro.synth import (
    CollectionProfile,
    QueryProfile,
    SyntheticCollection,
    generate_query_set,
)

TINY = CollectionProfile(
    name="tiny-memo", models="test", documents=80, mean_doc_length=40,
    doc_length_sigma=0.5, vocab_size=300, seed=73,
)
TOP_K = 10
BUDGET = 1 << 20

#: Small chunks, so the tiny collection's records become multi-chunk
#: chains whose tails an ingest batch rewrites.
CONFIGS = {
    "mneme-linked": config_by_name(
        "mneme-linked", medium_max_bytes=64, chunk_bytes=128
    ),
    "mneme-cache": config_by_name("mneme-cache"),
    "btree": config_by_name("btree"),
}


@pytest.fixture(scope="module")
def collection():
    return SyntheticCollection(TINY)


@pytest.fixture(scope="module")
def prepared(collection):
    return prepare_collection(collection)


@pytest.fixture(scope="module")
def corpus(collection):
    return LiveCorpus(collection)


@pytest.fixture(scope="module")
def queries(collection):
    query_set = generate_query_set(
        collection,
        QueryProfile(name="memo-weighted", style="weighted", n_queries=4,
                     mean_terms=4, seed=223),
    )
    return daat_queries(query_set.queries)


# -- the memo itself ------------------------------------------------------------


def test_decode_memoizes_by_record_bytes():
    record = encode_record_fast([(1, (1,)), (4, (2, 7))])
    cache = DecodeCache()
    first = cache.decode(record)
    assert cache.decode(bytes(record)) is first
    assert first.to_postings() == [(1, (1,)), (4, (2, 7))]


def test_eviction_is_least_recently_used():
    a = encode_record_fast([(1, (1,))])  # weight (2 + 2 + 1) + 3
    b = encode_record_fast([(2, (1,))])
    c = encode_record_fast([(3, (1,))])
    cache = DecodeCache(max_ints=16)
    cache.decode(a)
    cache.decode(b)
    cache.decode(a)  # b is now the oldest
    cache.decode(c)
    assert cache._lru.keys() == [a, c]
    assert cache._lru.held == 16


def test_entry_is_charged_for_what_it_keeps_alive():
    record = encode_record_fast([(1, (1, 5)), (3, (2,)), (9, (4, 6, 8))])
    cache = DecodeCache()
    arrays = cache.decode(record)
    # Deferred positions keep the whole decoded stream (2 + 2 df + ctf
    # integers, which the gap column views) beside doc_ids, the copied
    # tf column and pos_starts.
    assert cache._lru.held == (2 + 2 * 3 + 6) + 3 * 3
    assert cache._lru.held >= arrays.ctf + 3 * arrays.df  # the built form
    arrays.positions  # building frees the stream; the charge stays
    assert cache._lru.held == 14 + 9


def test_oversize_record_is_decoded_but_not_kept():
    small = encode_record_fast([(1, (1,)), (2, (3, 4))])  # weight 9 + 6
    big = encode_record_fast([(d, (1, 2, 3)) for d in range(1, 20)])  # weight 97 + 57
    cache = DecodeCache(max_ints=20)
    kept = cache.decode(small)
    arrays = cache.decode(big)
    assert arrays.to_postings() == [(d, (1, 2, 3)) for d in range(1, 20)]
    assert cache._lru.held <= 20
    assert cache._lru.keys() == [small]
    assert cache.decode(small) is kept


def test_decoded_columns_are_read_only():
    record = encode_record_fast([(1, (1, 5)), (3, (2,))])
    arrays = codec.decode_record_arrays(record)
    for column in (arrays.doc_ids, arrays.tf, arrays.positions, arrays.pos_starts):
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        arrays.tf[0] = 9


def test_deferred_gap_column_is_read_only():
    record = encode_record_fast([(1, (1, 5)), (3, (2,))])
    arrays = codec.decode_record_arrays(record)
    assert arrays._gaps is not None  # positions still deferred
    with pytest.raises(ValueError):
        arrays._gaps[0] = 9
    assert arrays.to_postings() == [(1, (1, 5)), (3, (2,))]


# -- every call site hands its kernels read-only columns -------------------------


def _columns(*arrays_list):
    return [
        column for arrays in arrays_list if arrays is not None
        for column in (arrays.doc_ids, arrays.tf)
    ]


def _with_positions(term_arrays):
    return _columns(*term_arrays) + [
        column for arrays in term_arrays
        for column in (arrays.positions, arrays.pos_starts)
    ]


def _terms(query):
    return [t for t in query.split()[1:-1] if not t.replace(".", "").isdigit()]


#: site -> (owner, attribute, columns(args, result), engine, query(flat))
SITES = {
    "taat-term": (
        _FastIndexProvider, "postings_arrays",
        lambda _args, arrays: _columns(arrays),
        RetrievalEngine, lambda flat: flat,
    ),
    "taat-window": (
        windows, "match_counts_for_docs",
        lambda args, _counts: _with_positions(args[0]),
        RetrievalEngine, lambda flat: "#od3( {} {} )".format(*_terms(flat)),
    ),
    "daat-chunk": (
        _ArrayStream, "_next_batch",
        lambda _args, batch: list(batch or ()),
        DocumentAtATimeEngine, lambda flat: flat,
    ),
    "pruned-block": (
        _Evaluator, "fetch_decoded",
        lambda _args, fetched: list(fetched[0]),
        functools.partial(DocumentAtATimeEngine, prune="require"),
        lambda flat: flat,
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_call_site_columns_are_read_only(monkeypatch, prepared, queries, site):
    owner, attribute, columns_of, engine_cls, query_of = SITES[site]
    system = materialize(prepared, CONFIGS["mneme-linked"])
    seen = []
    original = getattr(owner, attribute)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.extend(columns_of(args, result))
        return result

    monkeypatch.setattr(owner, attribute, spy)
    with use_fastpath(True):
        engine_cls(system.index, top_k=TOP_K).run_query(query_of(queries[0]))
    assert seen
    for column in seen:
        assert not column.flags.writeable
        if column.size:
            with pytest.raises(ValueError):
                column[0] = column[0]


# -- invisibility on compositions ----------------------------------------------


def _machines(backend):
    groups = getattr(backend, "replica_groups", None)
    if groups is None:
        return [backend]
    return [machine for group in groups for machine in group]


class _Serving:
    """DAAT serving over one flat or sharded backend.

    ``fresh`` builds a new engine — and with it a cold decode memo — for
    every query; otherwise one engine per machine serves everything.
    Term caches persist either way.
    """

    def __init__(self, backend, prune, cached, fresh):
        self.backend = backend
        self.prune = prune
        self.fresh = fresh
        self.sharded = hasattr(backend, "replica_groups")
        self.fleet = TermCacheFleet(BUDGET if cached else 0, backend)
        if self.sharded:
            self.scheduler = backend.scheduler(
                top_k=TOP_K, engine="daat", prune=prune,
                term_caches=self.fleet,
            )
        else:
            self.cache = self.fleet.cache_for(0, 0)
            self.engine = self._engine()

    def _engine(self):
        engine = DocumentAtATimeEngine(
            self.backend.index, top_k=TOP_K, prune=self.prune
        )
        engine.term_cache = self.cache
        return engine

    def run(self, text):
        if self.sharded:
            if self.fresh:
                # The scheduler rebuilds its per-replica engines on
                # demand; the term caches live in the fleet.
                self.scheduler._daat.clear()
            return self.scheduler.run_wave([text]).results[0]
        return (self._engine() if self.fresh else self.engine).run_query(text)

    def on_ingest(self, report):
        self.fleet.invalidate(report.mutated_terms)


def _observe(result):
    return (
        result.ranking, result.terms_looked_up, result.terms_attempted,
        result.terms_failed, result.pruned, result.documents_scored,
        result.documents_skipped, result.blocks_skipped,
        result.prune_threshold_updates, result.peak_resident_bytes,
    )


def serve_twice(prepared, corpus, queries, config, shards, prune, deletes,
                cached, stuck_at, adds, fresh):
    """Serve ``queries``, ingest a batch, serve them again; every
    observable the decode memo must not move, in order."""
    backend = materialize(prepared, CONFIGS[config], shards=shards)
    pipeline = IngestPipeline(backend)
    if deletes:
        pipeline.apply(deletes=corpus.documents_for(range(1, deletes + 1)))
    serving = _Serving(backend, prune, cached, fresh)
    machines = _machines(backend)
    for machine in machines:
        cold_start(machine)  # reads reach the disk, where the plan fires
    plan = FaultPlan(
        [] if stuck_at is None
        else [FaultEvent("transient-read", at_op=stuck_at, times=1 << 20)]
    )
    machines[0].fs.disk.attach_fault_plan(plan)
    engine_results = []
    run_query = DocumentAtATimeEngine.run_query

    def recorded(engine, text):
        result = run_query(engine, text)
        engine_results.append(_observe(result))
        return result

    rows = []
    decodes = []
    decode = codec.decode_record_arrays

    def counted(record):
        decodes.append(record)
        return decode(record)

    with mock.patch.object(DocumentAtATimeEngine, "run_query", recorded), \
            mock.patch.object(codec, "decode_record_arrays", counted):
        for run in range(2):
            for text in queries:
                del engine_results[:]
                merged = serving.run(text)
                rows.append((
                    merged.ranking, merged.degraded, list(engine_results),
                    [(m.clock.time.user_ms, m.clock.time.system_ms,
                      m.clock.time.io_ms) for m in machines],
                ))
            if run == 0:
                plan.clear()
                report = pipeline.apply(
                    adds=corpus.new_documents(adds, after=corpus.base_count)
                )
                serving.on_ingest(report)
    return rows, len(decodes), plan.stats.transient_reads


@given(
    config=st.sampled_from(sorted(CONFIGS)),
    shards=st.sampled_from([None, 2]),
    prune=st.sampled_from(["off", "auto"]),
    deletes=st.integers(min_value=0, max_value=3),
    cached=st.booleans(),
    stuck_at=st.none() | st.integers(min_value=0, max_value=40),
    adds=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_memo_is_invisible(prepared, corpus, queries, config, shards, prune,
                           deletes, cached, stuck_at, adds):
    shape = (config, shards, prune, deletes, cached, stuck_at, adds)
    with use_fastpath(True):
        memo = serve_twice(prepared, corpus, queries, *shape, fresh=False)
        cold = serve_twice(prepared, corpus, queries, *shape, fresh=True)
    memo_rows, memo_decodes, memo_stuck = memo
    cold_rows, cold_decodes, cold_stuck = cold
    assert memo_rows == cold_rows
    assert memo_stuck == cold_stuck
    assert memo_decodes <= cold_decodes


# -- the properties above are not vacuous ------------------------------------------


@pytest.mark.parametrize("prune", ["off", "require"])
def test_repeat_decodes_nothing_and_ingest_redecodes_the_tail(
    prepared, corpus, queries, prune
):
    backend = materialize(prepared, CONFIGS["mneme-linked"])
    engine = DocumentAtATimeEngine(backend.index, top_k=TOP_K, prune=prune)
    query = queries[0]
    decoded = []
    decode = codec.decode_record_arrays

    def counted(record):
        decoded.append(record)
        return decode(record)

    with use_fastpath(True), \
            mock.patch.object(codec, "decode_record_arrays", counted):
        engine.run_query(query)
        first = list(decoded)
        del decoded[:]
        engine.run_query(query)
        assert decoded == []  # the repeat is served from the memo

        report = IngestPipeline(backend).apply(
            adds=corpus.new_documents(3, after=corpus.base_count)
        )
        assert set(report.mutated_terms[0]) & set(query.split())
        del decoded[:]  # the ingest decodes the tails it merges into
        engine.run_query(query)
    # Only rewritten chunks decode again: the chains' untouched heads
    # still come from the memo, their new tails do not.
    assert decoded
    assert not set(decoded) & set(first)
    assert len(decoded) < len(first)
