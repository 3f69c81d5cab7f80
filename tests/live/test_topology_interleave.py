"""Property test: topology changes, the term-cache fleet and ingest compose.

A tiny 2x2 (two shards, one mirror each) WAL-backed ``mneme-linked``
service runs a random interleaving of query waves, ingest batches,
compactions, ``mark_down``, ``rereplicate`` and at most one
``rebalance``.  After every step:

* the service's lifetime term-cache counters never decrease;
* the cache of a machine that left the topology (re-replication
  replaced it, or the split replaced every machine) never changes
  again: no later ingest, compaction or query reaches it;
* every served ranking equals a stop-the-world rebuild of the epoch's
  live corpus.

Re-replication rebuilds a machine from the shard's prepared slice, so
once an ingest or compaction has changed a group's platters it refuses
with :class:`~repro.errors.ReplicaFailedError` and leaves the topology
as it was.  The split rebuilds from the live corpus, after which
re-replication works again.
"""

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.core import materialize
from repro.errors import ReplicaFailedError
from repro.live import reference_rankings
from repro.serve import QueryService
from repro.synth.traffic import TimedRequest

BUDGET = 1 << 20
OPS = ("query", "ingest", "compact", "mark_down", "rereplicate", "rebalance")
#: Lifetime counters of the fleet; ``bytes`` alone may fall.
MONOTONE = (
    "lookups", "hits", "misses", "insertions", "evictions",
    "rejected_oversize", "invalidated_terms", "peak_bytes",
)

steps_st = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 3), st.integers(0, 1)),
    min_size=2,
    max_size=7,
)


class _Run:
    """One service and the observations every step is checked against."""

    def __init__(self, prepared, corpus, config, queries, references):
        self.service = QueryService(
            materialize(prepared, config, shards=2, replicas=1),
            workers=2, use_cache=False, term_cache_bytes=BUDGET,
        )
        self.corpus, self.config, self.queries = corpus, config, queries
        self.references = references
        self.next_id = corpus.base_count + 512  # clear of other tests' ids
        self.mutated = False      # platters changed since they were built
        self.rebalanced = False
        self.stats = self.service.term_cache_stats()
        self.retired = {}         # id -> (cache, its stats at retirement)

    def step(self, op, shard, replica):
        service = self.service
        backend = service.backend
        shard %= backend.n_shards
        held = service.term_caches()
        if op == "query":
            self.check_rankings()
        elif op == "ingest":
            live = sorted(service.ingest_pipeline.epochs.live_docs())
            service.ingest(
                adds=self.corpus.new_documents(3, after=self.next_id),
                deletes=self.corpus.documents_for(live[shard * 7:][:1]),
            )
            self.next_id += 3
            self.mutated = True
        elif op == "compact":
            service.compact()
            self.mutated = True
        elif op == "mark_down":
            if len(backend.healthy_replicas(shard)) > 1:
                backend.mark_down(shard, replica)
        elif op == "rereplicate":
            if set(backend.healthy_replicas(shard)) - {replica}:
                machines = backend.machines()
                try:
                    backend.rereplicate(shard, replica)
                except ReplicaFailedError:
                    assert self.mutated
                    assert all(
                        backend.machines()[slot] is machine
                        for slot, machine in machines.items()
                    )
        elif not self.rebalanced:
            service.rebalance(2)
            self.rebalanced, self.mutated = True, False
        self.check_caches(held)

    def check_caches(self, held):
        stats = self.service.term_cache_stats()
        for name in MONOTONE:
            assert getattr(stats, name) >= getattr(self.stats, name), name
        self.stats = stats
        live = self.service.term_caches()
        for cache in held:
            if all(cache is not other for other in live):
                self.retired.setdefault(id(cache), (cache, cache.stats.copy()))
        for cache, frozen in self.retired.values():
            assert cache.stats == frozen

    def check_rankings(self):
        live_docs = self.service.ingest_pipeline.epochs.live_docs()
        if live_docs not in self.references:
            self.references[live_docs] = reference_rankings(
                self.config, self.corpus.documents_for(live_docs), self.queries
            )
        run = self.service.process([
            TimedRequest(text=text, arrival_ms=0.0, seq=i)
            for i, text in enumerate(self.queries)
        ])
        assert not any(row.result.degraded for row in run.served)
        assert {
            row.text: row.result.ranking for row in run.served
        } == self.references[live_docs]


@pytest.fixture(scope="module")
def references():
    """Rebuild rankings by live-document set, shared across examples."""
    return {}


@given(steps=steps_st)
@example(steps=[("query", 0, 0), ("rereplicate", 0, 0), ("ingest", 0, 0),
                ("query", 0, 0)])
@example(steps=[("ingest", 0, 0), ("rebalance", 0, 0), ("rereplicate", 3, 1),
                ("ingest", 1, 0), ("query", 0, 0)])
@settings(max_examples=15, deadline=None)
def test_topology_interleavings_compose(
    steps, prepared, corpus, config, queries, references
):
    run = _Run(prepared, corpus, config, queries, references)
    for op, shard, replica in steps:
        run.step(op, shard, replica)
    run.check_rankings()
    run.check_caches(run.service.term_caches())
