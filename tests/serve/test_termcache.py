"""The decoded-term cache: unit mechanics and engine-level invisibility.

The unit half drives :class:`repro.serve.termcache.TermCache` directly:
size-weighted LRU order, byte budget (peak included), oversize
rejection, fingerprint validation, per-term invalidation, tombstone
folding, and stats merging.  The engine half attaches a cache to the
real term-at-a-time and document-at-a-time engines and asserts the
gate's core contract in miniature: rankings and pruning counters
bit-identical to the cache-off run, with hits actually happening.
"""

import pytest

from repro.core import config_by_name, materialize
from repro.core.metrics import cold_start
from repro.errors import ConfigError
from repro.fastpath import use_fastpath
from repro.inquery import DocumentAtATimeEngine, RetrievalEngine
from repro.serve.termcache import (
    TERM_PROBE_MS,
    TermCache,
    TermCacheStats,
    merge_stats,
)


def _filled(cache, items):
    for term, nbytes in items:
        assert cache.put("postings", term, [term], nbytes)


class TestUnitMechanics:
    def test_hit_and_miss_counters(self):
        cache = TermCache(1024)
        assert cache.get("postings", "alpha") is None
        cache.put("postings", "alpha", [1, 2], 64)
        hit = cache.get("postings", "alpha")
        assert hit is not None and hit.payload == [1, 2]
        assert (cache.stats.lookups, cache.stats.hits, cache.stats.misses) \
            == (2, 1, 1)

    def test_kinds_are_distinct_keyspaces(self):
        cache = TermCache(1024)
        cache.put("postings", "alpha", "p", 8)
        cache.put("arrays", "alpha", "a", 8)
        assert cache.get("postings", "alpha").payload == "p"
        assert cache.get("arrays", "alpha").payload == "a"

    def test_lru_eviction_is_size_weighted(self):
        cache = TermCache(100, max_entry_fraction=1.0)
        _filled(cache, [("a", 40), ("b", 40)])
        assert cache.get("postings", "a") is not None  # freshen a
        cache.put("postings", "c", ["c"], 40)          # evicts b, the LRU
        assert cache.get("postings", "b") is None
        assert cache.get("postings", "a") is not None
        assert cache.get("postings", "c") is not None
        assert cache.stats.evictions == 1

    def test_budget_never_exceeded_peak_included(self):
        cache = TermCache(100, max_entry_fraction=1.0)
        for i in range(50):
            cache.put("postings", f"t{i}", i, 30)
            assert cache.stats.bytes <= 100
        assert cache.stats.peak_bytes <= 100
        assert cache.stats.evictions > 0

    def test_oversize_rejected_not_admitted(self):
        cache = TermCache(1000, max_entry_fraction=0.25)
        assert not cache.put("postings", "big", "x", 251)
        assert cache.get("postings", "big") is None
        assert cache.stats.rejected_oversize == 1
        assert cache.stats.bytes == 0

    def test_replacing_an_entry_adjusts_bytes(self):
        cache = TermCache(1000)
        cache.put("postings", "a", "v1", 100)
        cache.put("postings", "a", "v2", 40)
        assert cache.stats.bytes == 40
        assert cache.get("postings", "a").payload == "v2"

    def test_fingerprint_mismatch_drops_entry(self):
        cache = TermCache(1024)
        cache.put("postings", "a", "old", 16, fingerprint=("k1",))
        assert cache.get("postings", "a", fingerprint=("k2",)) is None
        # The stale entry is gone entirely, not just skipped.
        assert cache.stats.bytes == 0
        assert cache.stats.misses == 1

    def test_invalidate_terms_drops_every_kind(self):
        cache = TermCache(4096)
        cache.put("postings", "a", 1, 16)
        cache.put("arrays", "a", 2, 16)
        cache.put("stream", "a", 3, 16)
        cache.put("postings", "b", 4, 16)
        dropped = cache.invalidate_terms(["a", "missing"])
        assert dropped == 3
        assert cache.get("postings", "a") is None
        assert cache.get("postings", "b") is not None
        assert cache.stats.invalidated_terms == 3

    def test_fold_tombstones_reaches_every_entry(self):
        cache = TermCache(4096)
        cache.put("postings", "a", 1, 16, dead={7})
        cache.put("postings", "b", 2, 16)
        cache.fold_tombstones({9})
        assert cache.get("postings", "a").dead == frozenset({7, 9})
        assert cache.get("postings", "b").dead == frozenset({9})

    def test_clear_resets_residency_not_counters(self):
        cache = TermCache(1024)
        cache.put("postings", "a", 1, 16)
        cache.get("postings", "a")
        cache.clear()
        assert cache.get("postings", "a") is None
        assert cache.stats.hits == 1
        assert cache.stats.bytes == 0

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            TermCache(0)
        with pytest.raises(ConfigError):
            TermCache(1024, max_entry_fraction=0.0)
        with pytest.raises(ConfigError):
            TermCache(1024, max_entry_fraction=1.5)

    def test_probe_cost_is_exported(self):
        assert TermCache(64).probe_ms == TERM_PROBE_MS

    def test_trace_records_operations_in_order(self):
        cache = TermCache(1024, record_trace=True)
        cache.get("postings", "a")
        cache.put("postings", "a", 1, 16)
        cache.get("postings", "a")
        ops = [op for op, _kind, _term in cache.trace]
        assert ops == ["miss", "put", "hit"]

    def test_merge_stats_sums_counters(self):
        one, two = TermCache(1024, shard=0), TermCache(1024, shard=1)
        one.put("postings", "a", 1, 16)
        one.get("postings", "a")
        two.get("postings", "b")
        merged = merge_stats([one, two])
        assert isinstance(merged, TermCacheStats)
        assert merged.lookups == 2
        assert merged.hits == 1
        assert merged.misses == 1
        assert merged.bytes == 16


def _run_engine(prepared, config, stream, engine_kind, prune, cache):
    system = materialize(prepared, config)
    cold_start(system)
    if engine_kind == "taat":
        engine = RetrievalEngine(
            system.index, top_k=20,
            use_reservation=config.use_reservation,
        )
    else:
        engine = DocumentAtATimeEngine(system.index, top_k=20, prune=prune)
    engine.term_cache = cache
    results = [engine.run_query(text) for text in stream]
    return [
        (
            r.ranking,
            getattr(r, "documents_scored", None),
            getattr(r, "documents_skipped", None),
            getattr(r, "blocks_skipped", None),
        )
        for r in results
    ]


class TestEngineInvisibility:
    @pytest.mark.parametrize("fastpath", [False, True])
    def test_taat_identical_with_hits(self, prepared, pool, fastpath):
        config = config_by_name("mneme-linked")
        stream = pool[:6] * 3
        cache = TermCache(1 << 20)
        with use_fastpath(fastpath):
            baseline = _run_engine(prepared, config, stream, "taat", "off", None)
            cached = _run_engine(prepared, config, stream, "taat", "off", cache)
        assert cached == baseline
        assert cache.stats.hits > 0
        assert cache.stats.peak_bytes <= 1 << 20

    @pytest.mark.parametrize("prune", ["off", "require"])
    def test_daat_identical_with_hits(self, prepared, daat_pool, prune):
        config = config_by_name("mneme-linked")
        stream = daat_pool[:4] * 3
        cache = TermCache(1 << 20)
        baseline = _run_engine(prepared, config, stream, "daat", prune, None)
        cached = _run_engine(prepared, config, stream, "daat", prune, cache)
        assert cached == baseline
        assert cache.stats.hits > 0

    def test_eviction_pressure_stays_identical(self, prepared, pool):
        config = config_by_name("mneme-linked")
        stream = pool[:6] * 3
        probe = TermCache(1 << 20)
        baseline = _run_engine(prepared, config, stream, "taat", "off", None)
        _run_engine(prepared, config, stream, "taat", "off", probe)
        budget = max(256, probe.stats.peak_bytes // 2)
        cache = TermCache(budget, max_entry_fraction=1.0)
        cached = _run_engine(prepared, config, stream, "taat", "off", cache)
        assert cached == baseline
        assert cache.stats.evictions > 0
        assert cache.stats.peak_bytes <= budget
