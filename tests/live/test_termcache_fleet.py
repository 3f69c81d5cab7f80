"""The term-cache fleet: every cache's lifecycle behind one object.

The unit half drives :class:`repro.serve.termcache.TermCacheFleet`
directly.  The service half serves a flat and a 2x2 sharded backend and
walks the fleet through a replaced machine (``rereplicate``), a topology
change (``rebalance``), an ingest batch and a compaction: each cache is
created, invalidated, folded and retired exactly where it should be,
the lifetime counters never go backwards, and every served ranking
matches a cache-free read of the same index.
"""

import pytest

from repro.core import materialize
from repro.errors import ConfigError
from repro.inquery import DEFAULT_TOP_K, RetrievalEngine
from repro.serve import QueryService, TermCacheFleet
from repro.synth.traffic import TimedRequest

BUDGET = 1 << 20


def burst(texts):
    return [TimedRequest(text=text, arrival_ms=0.0) for text in texts]


class _Topology:
    """A stand-in backend: one placeholder machine per (shard, replica)."""

    def __init__(self, *slots):
        self.slots = {slot: object() for slot in slots}

    def machines(self):
        return dict(sorted(self.slots.items()))

    def replica(self, shard, replica):
        return self.slots[(shard, replica)]

    def replace(self, *slots):
        for slot in slots:
            self.slots[slot] = object()


class TestFleetMechanics:
    def test_one_cache_per_machine(self):
        fleet = TermCacheFleet(1024, _Topology((0, 1), (1, 0)))
        cache = fleet.cache_for(0, 1)
        assert fleet.cache_for(0, 1) is cache
        assert fleet.cache_for(1, 0) is not cache
        assert [c.shard for c in fleet.caches()] == [0, 1]
        assert cache.byte_budget == 1024

    def test_replaced_machine_retires_its_cache_with_its_counters(self):
        topology = _Topology((0, 0))
        fleet = TermCacheFleet(1024, topology)
        old = fleet.cache_for(0, 0)
        old.put("arrays", "a", b"x", 64)
        old.get("arrays", "a")
        topology.replace((0, 0))
        fresh = fleet.cache_for(0, 0)
        assert fresh is not old and len(fresh) == 0
        assert fleet.caches() == [fresh]
        stats = fleet.stats()
        assert (stats.lookups, stats.hits, stats.insertions) == (1, 1, 1)
        assert (stats.bytes, stats.peak_bytes) == (0, 64)

    def test_replaced_machine_cache_is_never_touched_again(self):
        # No cache_for between the replacement and the ingest: the
        # fleet-wide operations read the topology themselves.
        topology = _Topology((0, 0), (0, 1))
        fleet = TermCacheFleet(1024, topology)
        dead, kept = fleet.cache_for(0, 0), fleet.cache_for(0, 1)
        for cache in (dead, kept):
            cache.put("arrays", "a", b"x", 8)
        topology.replace((0, 0))
        frozen = dead.stats.copy()
        assert fleet.invalidate({0: ("a",)}) == 1
        fleet.fold({0: (3,)})
        assert fleet.caches() == [kept]
        assert dead.stats == frozen and ("arrays", "a") in dead
        assert dead.get("arrays", "a").dead == frozenset()
        assert fleet.stats().invalidated_terms == 1

    def test_invalidate_and_fold_reach_only_the_owning_shard(self):
        fleet = TermCacheFleet(1024, _Topology((0, 0), (1, 0)))
        zero, one = fleet.cache_for(0, 0), fleet.cache_for(1, 0)
        for cache in (zero, one):
            cache.put("arrays", "a", b"x", 8)
            cache.put("stream", "a", b"y", 8)
        assert fleet.invalidate({1: ("a", "missing")}) == 2
        assert ("arrays", "a") in zero and ("arrays", "a") not in one
        fleet.fold({0: (7, 9)})
        assert zero.get("arrays", "a").dead == frozenset({7, 9})
        one.put("arrays", "b", b"z", 8)
        fleet.fold({})
        assert one.get("arrays", "b").dead == frozenset()

    def test_retire_keeps_lifetime_counters(self):
        # A cutover replaces every machine: every cache retires.
        topology = _Topology((0, 0), (1, 0))
        fleet = TermCacheFleet(1024, topology)
        for shard, size in ((0, 100), (1, 60)):
            fleet.cache_for(shard, 0).put("arrays", "a", b"x", size)
        before = fleet.stats()
        assert (before.bytes, before.peak_bytes) == (160, 100)
        topology.replace((0, 0), (1, 0))
        after = fleet.stats()
        assert fleet.caches() == []
        assert after.insertions == before.insertions == 2
        assert (after.bytes, after.peak_bytes) == (0, 100)

    def test_zero_budget_is_off_and_negative_is_refused(self):
        fleet = TermCacheFleet(0, _Topology((0, 0)))
        assert fleet.cache_for(0, 0) is None
        assert fleet.caches() == []
        assert fleet.stats().lookups == 0
        with pytest.raises(ConfigError):
            TermCacheFleet(-1, _Topology((0, 0)))


def _cache_free(backend, queries, sharded):
    if sharded:
        outcome = backend.scheduler(top_k=DEFAULT_TOP_K).run_wave(queries)
        return [r.ranking for r in outcome.results]
    engine = RetrievalEngine(backend.index, top_k=DEFAULT_TOP_K)
    return [engine.run_query(text).ranking for text in queries]


def _serve(service, queries):
    return [row.result.ranking for row in service.process(burst(queries)).served]


def _monotone(before, after):
    for name in ("lookups", "hits", "misses", "insertions", "evictions",
                 "invalidated_terms", "peak_bytes"):
        assert getattr(after, name) >= getattr(before, name), name


@pytest.mark.parametrize("shards", [0, 2])
def test_service_lifecycle(prepared, corpus, config, queries, shards):
    sharded = bool(shards)
    backend = materialize(
        prepared, config, **({"shards": 2, "replicas": 1} if sharded else {})
    )
    service = QueryService(
        backend, workers=2, use_cache=False, term_cache_bytes=BUDGET
    )
    fleet = service.term_cache_fleet
    if not sharded:
        # A flat system is the one slot of its own topology view.
        assert list(backend.machines().items()) == [((0, 0), backend)]
        with pytest.raises(ConfigError):
            backend.replica(0, 1)
    assert _serve(service, queries) == _cache_free(backend, queries, sharded)
    stats = service.term_cache_stats()
    assert stats.lookups > 0 and stats.peak_bytes > 0
    # Primary routing: one cache per shard's serving replica.
    assert [cache.shard for cache in service.term_caches()] == (
        [0, 1] if sharded else [0]
    )

    if sharded:
        # A replaced machine: its cache retires at once.
        old = fleet.caches()[0]
        backend.mark_down(0, 0)
        backend.rereplicate(0, 0)
        assert old not in fleet.caches()
        assert _serve(service, queries) == _cache_free(backend, queries, True)
        assert old not in fleet.caches()
        assert len(fleet.caches()) == 2
        after = service.term_cache_stats()
        _monotone(stats, after)
        assert after.lookups == 2 * stats.lookups
        stats = after

        # A topology change retires every cache; replacements start cold.
        service.rebalance(factor=2)
        after = service.term_cache_stats()
        assert service.term_caches() == []
        assert after.bytes == 0
        _monotone(stats, after)
        assert _serve(service, queries) == _cache_free(backend, queries, True)
        assert [cache.shard for cache in service.term_caches()] == [0, 1, 2, 3]
        stats = service.term_cache_stats()

    # Ingest drops exactly the owning shard's mutated terms.
    held = {id(cache): cache._lru.keys() for cache in fleet.caches()}
    adds = corpus.new_documents(6, after=corpus.base_count)
    deletes = corpus.documents_for(sorted(corpus.base_ids)[:3])
    report = service.ingest(adds=adds, deletes=deletes)
    expected = 0
    for cache in fleet.caches():
        mutated = set(report.mutated_terms.get(cache.shard, ()))
        gone = [key for key in held[id(cache)] if key[1] in mutated]
        assert cache._lru.keys() == [
            key for key in held[id(cache)] if key not in gone
        ]
        expected += len(gone)
    assert expected > 0
    after = service.term_cache_stats()
    assert after.invalidated_terms - stats.invalidated_terms == expected
    assert _serve(service, queries) == _cache_free(backend, queries, sharded)

    # Compaction folds each shard's tombstones into its caches and
    # drops nothing.
    sizes = [len(cache) for cache in fleet.caches()]
    summary = service.compact()
    assert summary.folded_tombstones
    assert sorted(
        doc for docs in summary.folded_tombstones.values() for doc in docs
    ) == sorted(d.doc_id for d in deletes)
    assert [len(cache) for cache in fleet.caches()] == sizes
    for cache in fleet.caches():
        folded = set(summary.folded_tombstones.get(cache.shard, ()))
        assert all(folded <= entry.dead for entry in cache._lru.values())
    assert _serve(service, queries) == _cache_free(backend, queries, sharded)


def test_rereplicated_machine_cache_is_not_invalidated_by_ingest(
    prepared, corpus, config, queries
):
    # Re-replication, then an ingest with no query in between: the
    # replaced machine's cache has already left the fleet, so only the
    # live caches pay for the batch.
    backend = materialize(prepared, config, shards=2, replicas=1)
    service = QueryService(
        backend, workers=2, use_cache=False, term_cache_bytes=BUDGET
    )
    _serve(service, queries)
    dead, kept = service.term_caches()
    assert (dead.shard, kept.shard) == (0, 1)
    frozen = dead.stats.copy()
    backend.rereplicate(0, 0)
    before = service.term_cache_stats()
    held = kept._lru.keys()
    report = service.ingest(
        adds=corpus.new_documents(6, after=corpus.base_count + 384)
    )
    assert dead.stats == frozen
    assert service.term_caches() == [kept]
    mutated = set(report.mutated_terms.get(1, ()))
    assert service.term_cache_stats().invalidated_terms - (
        before.invalidated_terms
    ) == sum(1 for key in held if key[1] in mutated)
