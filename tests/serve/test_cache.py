"""Unit tests for the epoch-invalidated LRU result cache."""

import pytest

from repro.errors import CacheInconsistencyError, ConfigError
from repro.inquery.engine import QueryResult
from repro.serve import ResultCache, clone_result


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
