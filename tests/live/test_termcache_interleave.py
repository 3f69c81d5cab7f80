"""Property tests: the term cache under random ingest interleavings.

For any interleaving of document adds, tombstone deletes, compactions,
and queries — flat or sharded (N ∈ {1, 2}) — an engine carrying a
persistent decoded-term cache must serve rankings and evaluation
counters bit-identical to a cache-free engine reading the same live
index at every step.  The cached side follows the service's lifecycle
discipline: each ingest batch invalidates the mutated terms of the
owning shard, and each compaction folds the outgoing tombstones into
the surviving entries (nothing is dropped).  Any stale entry the
lifecycle misses would surface as a ranking that disagrees with the
cache-free read.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import materialize
from repro.inquery import DEFAULT_TOP_K, DocumentAtATimeEngine, RetrievalEngine
from repro.live import IngestPipeline
from repro.serve.termcache import TermCacheFleet

BUDGET = 1 << 20

ops_st = st.lists(
    st.sampled_from(["add", "delete", "query", "compact"]),
    min_size=2,
    max_size=7,
)


def _observe(result):
    return (
        result.ranking,
        getattr(result, "documents_scored", None),
        getattr(result, "documents_skipped", None),
        getattr(result, "blocks_skipped", None),
    )


class _Harness:
    """The service's lifecycle discipline over the harness's fleets."""

    def on_ingest(self, report):
        for fleet in self.fleets:
            fleet.invalidate(report.mutated_terms)

    def on_compact(self, summary):
        for fleet in self.fleets:
            fleet.fold(summary.folded_tombstones)

    @property
    def lookups(self):
        return sum(fleet.stats().lookups for fleet in self.fleets)


class _FlatHarness(_Harness):
    """One flat backend; a cached engine pair beside cache-free reads."""

    def __init__(self, backend, config):
        self.backend = backend
        self.fleets = [TermCacheFleet(BUDGET, backend)]
        cache = self.fleets[0].cache_for(0, 0)
        self.taat = RetrievalEngine(
            backend.index, top_k=DEFAULT_TOP_K,
            use_reservation=config.use_reservation,
        )
        self.taat.term_cache = cache
        self.daat = DocumentAtATimeEngine(
            backend.index, top_k=DEFAULT_TOP_K, prune="auto"
        )
        self.daat.term_cache = cache
        self.config = config

    def cached(self, queries, daat_queries):
        return (
            [_observe(self.taat.run_query(t)) for t in queries]
            + [_observe(self.daat.run_query(t)) for t in daat_queries]
        )

    def fresh(self, queries, daat_queries):
        taat = RetrievalEngine(
            self.backend.index, top_k=DEFAULT_TOP_K,
            use_reservation=self.config.use_reservation,
        )
        daat = DocumentAtATimeEngine(
            self.backend.index, top_k=DEFAULT_TOP_K, prune="auto"
        )
        return (
            [_observe(taat.run_query(t)) for t in queries]
            + [_observe(daat.run_query(t)) for t in daat_queries]
        )


class _ShardedHarness(_Harness):
    """One sharded backend; a persistent cached scheduler beside
    per-step cache-free schedulers."""

    def __init__(self, backend, config):
        self.backend = backend
        self.fleets = [
            TermCacheFleet(BUDGET, backend), TermCacheFleet(BUDGET, backend)
        ]
        self.scheduler = backend.scheduler(
            top_k=DEFAULT_TOP_K, engine="taat", term_caches=self.fleets[0]
        )
        self.daat_scheduler = backend.scheduler(
            top_k=DEFAULT_TOP_K, engine="daat", prune="auto",
            term_caches=self.fleets[1],
        )

    def cached(self, queries, daat_queries):
        taat = self.scheduler.run_wave(list(queries)).results
        daat = self.daat_scheduler.run_wave(list(daat_queries)).results
        return [_observe(r) for r in taat] + [_observe(r) for r in daat]

    def fresh(self, queries, daat_queries):
        taat = self.backend.scheduler(
            top_k=DEFAULT_TOP_K, engine="taat"
        ).run_wave(list(queries)).results
        daat = self.backend.scheduler(
            top_k=DEFAULT_TOP_K, engine="daat", prune="auto"
        ).run_wave(list(daat_queries)).results
        return [_observe(r) for r in taat] + [_observe(r) for r in daat]


def run_interleaving(
    ops, n_shards, prepared, corpus, config, queries, daat_queries
):
    if n_shards:
        backend = materialize(
            prepared, config, shards=n_shards,
            replicas=1 if n_shards > 1 else 0,
        )
        harness = _ShardedHarness(backend, config)
    else:
        backend = materialize(prepared, config)
        harness = _FlatHarness(backend, config)
    pipeline = IngestPipeline(backend)
    next_id = corpus.base_count + 256  # clear of other tests' extra ids
    queried = False
    for op in ops:
        if op == "add":
            harness.on_ingest(
                pipeline.apply(adds=corpus.new_documents(2, after=next_id))
            )
            next_id += 2
        elif op == "delete":
            live = sorted(pipeline.epochs.live_docs())
            if len(live) <= 2:
                continue
            harness.on_ingest(
                pipeline.apply(deletes=corpus.documents_for(live[:1]))
            )
        elif op == "compact":
            harness.on_compact(pipeline.compact())
        else:
            queried = True
            assert harness.cached(queries, daat_queries) == harness.fresh(
                queries, daat_queries
            )
    # Terminal check: whatever state the interleaving ended in matches.
    assert harness.cached(queries, daat_queries) == harness.fresh(
        queries, daat_queries
    )
    assert harness.lookups > 0
    del queried


@given(ops=ops_st)
@settings(max_examples=10, deadline=None)
def test_flat_cached_interleavings_match_fresh(
    ops, prepared, corpus, config, queries, daat_queries
):
    run_interleaving(
        ops, 0, prepared, corpus, config, queries, daat_queries
    )


@pytest.mark.parametrize("n_shards", [1, 2])
@given(ops=ops_st)
@settings(max_examples=6, deadline=None)
def test_sharded_cached_interleavings_match_fresh(
    n_shards, ops, prepared, corpus, config, queries, daat_queries
):
    run_interleaving(
        ops, n_shards, prepared, corpus, config, queries, daat_queries
    )
