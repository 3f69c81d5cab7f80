"""Unit tests for the epoch-invalidated LRU result cache."""

import pytest

from repro.core import materialize
from repro.errors import CacheInconsistencyError, ConfigError
from repro.fastpath import use_fastpath
from repro.inquery import DocumentAtATimeEngine, RetrievalEngine
from repro.inquery.engine import QueryResult
from repro.serve import QueryService, ResultCache, clone_result
from repro.shard.merge import ShardedQueryResult
from repro.synth.traffic import TimedRequest


def complete(query, score=1.0):
    return QueryResult(query=query, ranking=[(1, score), (2, score / 2)])


def degraded(query):
    return QueryResult(
        query=query, ranking=[(1, 0.5)],
        degraded=True, terms_attempted=4, terms_failed=1,
    )


def test_capacity_must_be_positive():
    with pytest.raises(ConfigError):
        ResultCache(capacity=0)


def test_get_miss_returns_none_and_counts():
    cache = ResultCache(capacity=4)
    assert cache.get("absent") is None
    assert cache.stats.lookups == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0


def test_put_get_roundtrip_is_bit_identical():
    cache = ResultCache(capacity=4)
    original = complete("q1")
    assert cache.put("k1", original)
    served = cache.get("k1")
    assert served.ranking == original.ranking
    assert served.query == original.query
    assert cache.stats.hits == 1


def test_hit_relabels_query_text_only():
    cache = ResultCache(capacity=4)
    cache.put("k1", complete("Original Spelling"))
    served = cache.get("k1", query_text="other spelling")
    assert served.query == "other spelling"
    assert served.ranking == complete("Original Spelling").ranking


def test_entries_are_isolated_both_ways():
    cache = ResultCache(capacity=4)
    original = complete("q1")
    cache.put("k1", original)
    original.ranking.append((99, 0.0))  # caller mutates after insert
    first = cache.get("k1")
    assert (99, 0.0) not in first.ranking
    first.ranking.clear()  # caller mutates a served copy
    second = cache.get("k1")
    assert second.ranking == complete("q1").ranking


def test_lru_eviction_order():
    cache = ResultCache(capacity=2)
    cache.put("a", complete("a"))
    cache.put("b", complete("b"))
    assert cache.get("a") is not None  # freshen a: b is now LRU
    cache.put("c", complete("c"))     # evicts b
    assert cache.keys() == ["a", "c"]
    assert "b" not in cache
    assert cache.stats.evictions == 1


def test_reinsert_refreshes_recency():
    cache = ResultCache(capacity=2)
    cache.put("a", complete("a"))
    cache.put("b", complete("b"))
    cache.put("a", complete("a"))  # refresh: b becomes LRU
    cache.put("c", complete("c"))
    assert cache.keys() == ["a", "c"]


def test_degraded_results_are_refused():
    cache = ResultCache(capacity=4)
    assert not cache.put("bad", degraded("q"))
    assert len(cache) == 0
    assert "bad" not in cache
    assert cache.stats.rejected_degraded == 1
    assert cache.stats.insertions == 0


def test_invalidate_drops_everything_and_bumps_epoch():
    cache = ResultCache(capacity=4)
    cache.put("a", complete("a"))
    cache.put("b", complete("b"))
    before = cache.epoch
    assert cache.invalidate("rebuild") == 2
    assert cache.epoch == before + 1
    assert len(cache) == 0
    assert cache.get("a") is None
    assert cache.stats.invalidations == 1


def test_stale_epoch_entry_raises_inconsistency():
    cache = ResultCache(capacity=4)
    cache.put("a", complete("a"))
    # Simulate a corrupted survivor: an entry whose stamp predates the
    # current epoch (invalidate() itself clears the table, so this can
    # only happen through a bug — and must never be served silently).
    epoch, result = cache._lru.get("a")
    cache._epoch += 1
    cache._lru.put("a", (epoch, result), 1)
    with pytest.raises(CacheInconsistencyError) as excinfo:
        cache.get("a")
    assert excinfo.value.key == "a"


def test_clone_result_preserves_runtime_class():
    class Subclass(QueryResult):
        pass

    original = Subclass(query="q", ranking=[(1, 1.0)])
    duplicate = clone_result(original, query_text="relabel")
    assert type(duplicate) is Subclass
    assert duplicate.query == "relabel"


def test_hit_rate_tracks_lookups():
    cache = ResultCache(capacity=4)
    cache.put("a", complete("a"))
    cache.get("a")
    cache.get("missing")
    assert cache.stats.hit_rate == pytest.approx(0.5)


# -- isolation: the one-level copy ----------------------------------------------


def sharded(query):
    return ShardedQueryResult(
        query=query, ranking=[(3, 0.9), (1, 0.4)],
        shard_contributions={0: 1, 1: 1}, shards_down=(2,), served_by={0: 1, 1: 0},
    )


def _vandalize(result):
    result.ranking.append((99, 0.0))
    result.ranking[0] = (7, 7.0)
    result.shard_contributions[5] = 5
    result.served_by.clear()


def _fields(result):
    return (result.query, list(result.ranking), dict(result.shard_contributions),
            result.shards_down, dict(result.served_by))


def test_mutating_a_hit_changes_neither_the_entry_nor_later_hits():
    cache = ResultCache(capacity=4)
    original = sharded("q")
    pristine = _fields(original)
    cache.put("k", original)
    _vandalize(original)  # the evaluation's own copy, after insert
    first = cache.get("k")
    assert type(first) is ShardedQueryResult
    assert _fields(first) == pristine
    _vandalize(first)
    _entry_epoch, entry = cache._lru.get("k")
    assert _fields(entry) == pristine
    second = cache.get("k", query_text="other spelling")
    assert _fields(second)[1:] == pristine[1:]
    assert second.query == "other spelling"
    assert second.ranking is not first.ranking
    assert second.served_by is not entry.served_by


def test_mutating_a_shared_row_leaves_the_cache_intact(prepared, config, pool):
    text = pool[0]
    service = QueryService(materialize(prepared, config, shards=2), max_batch=4)
    report = service.process([TimedRequest(text=text, arrival_ms=0.0)] * 3)
    assert [row.outcome for row in report.served] == ["miss", "shared", "shared"]
    pristine = _fields(report.served[0].result)
    for row in report.served:
        _vandalize(row.result)
    hit = service.serve_one(text)
    assert service.stats.cache_hits == 1
    assert _fields(hit) == pristine
    _vandalize(hit)
    assert _fields(service.serve_one(text)) == pristine


def _engine_rankings(prepared, config, pool, daat_pool, source):
    if source == "sharded":
        service = QueryService(materialize(prepared, config, shards=2))
        return [service.serve_one(text).ranking for text in pool]
    system = materialize(prepared, config)
    if source == "taat":
        engine = RetrievalEngine(system.index)
    else:
        engine = DocumentAtATimeEngine(
            system.index, prune="require" if source == "pruned" else "off"
        )
    texts = pool if source == "taat" else daat_pool
    return [engine.run_query(text).ranking for text in texts]


@pytest.mark.parametrize("fast", [True, False], ids=["fastpath", "reference"])
@pytest.mark.parametrize("source", ["taat", "daat", "pruned", "sharded"])
def test_rankings_hold_only_int_float_tuples(
    prepared, config, pool, daat_pool, source, fast
):
    """What :func:`clone_result`'s one-level copy relies on: a ranking's
    items are immutable ``(int, float)`` tuples."""
    with use_fastpath(fast):
        rankings = _engine_rankings(prepared, config, pool, daat_pool, source)
    entries = [entry for ranking in rankings for entry in ranking]
    assert entries
    for entry in entries:
        assert type(entry) is tuple and len(entry) == 2
        assert type(entry[0]) is int and type(entry[1]) is float


def test_clone_result_copies_only_the_containers():
    original = sharded("q")
    duplicate = clone_result(original)
    assert duplicate == original
    assert duplicate.ranking is not original.ranking
    assert duplicate.shard_contributions is not original.shard_contributions
    assert duplicate.served_by is not original.served_by
    assert all(a is b for a, b in zip(duplicate.ranking, original.ranking))
    assert duplicate.shards_down is original.shards_down
