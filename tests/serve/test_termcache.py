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
        assert cache.put("arrays", term, [term], nbytes)


class TestUnitMechanics:
    def test_hit_and_miss_counters(self):
        cache = TermCache(1024)
        assert cache.get("arrays", "alpha") is None
        cache.put("arrays", "alpha", [1, 2], 64)
        hit = cache.get("arrays", "alpha")
        assert hit is not None and hit.payload == [1, 2]
        assert (cache.stats.lookups, cache.stats.hits, cache.stats.misses) \
            == (2, 1, 1)

    def test_kinds_are_distinct_keyspaces(self):
        cache = TermCache(1024)
        cache.put("arrays", "alpha", "a", 8)
        cache.put("stream", "alpha", "s", 8)
        assert cache.get("arrays", "alpha").payload == "a"
        assert cache.get("stream", "alpha").payload == "s"

    def test_lru_eviction_is_size_weighted(self):
        cache = TermCache(100, max_entry_fraction=1.0)
        _filled(cache, [("a", 40), ("b", 40)])
        assert cache.get("arrays", "a") is not None  # freshen a
        cache.put("arrays", "c", ["c"], 40)          # evicts b, the LRU
        assert cache.get("arrays", "b") is None
        assert cache.get("arrays", "a") is not None
        assert cache.get("arrays", "c") is not None
        assert cache.stats.evictions == 1

    def test_budget_never_exceeded_peak_included(self):
        cache = TermCache(100, max_entry_fraction=1.0)
        for i in range(50):
            cache.put("arrays", f"t{i}", i, 30)
            assert cache.stats.bytes <= 100
        assert cache.stats.peak_bytes <= 100
        assert cache.stats.evictions > 0
        # An entry of exactly the budget evicts everything else and stays.
        assert cache.put("arrays", "whole", "w", 100)
        assert cache.stats.bytes == cache.stats.peak_bytes == 100
        assert len(cache) == 1 and cache.get("arrays", "whole") is not None

    def test_oversize_rejected_not_admitted(self):
        cache = TermCache(1000, max_entry_fraction=0.25)
        assert not cache.put("arrays", "big", "x", 251)
        assert cache.get("arrays", "big") is None
        assert cache.stats.rejected_oversize == 1
        assert cache.stats.bytes == 0

    def test_replacing_an_entry_adjusts_bytes(self):
        cache = TermCache(1000)
        cache.put("arrays", "a", "v1", 100)
        cache.put("arrays", "a", "v2", 40)
        assert cache.stats.bytes == 40
        assert cache.get("arrays", "a").payload == "v2"

    def test_fingerprint_mismatch_drops_entry(self):
        cache = TermCache(1024)
        cache.put("arrays", "a", "old", 16, fingerprint=("k1",))
        assert cache.get("arrays", "a", fingerprint=("k2",)) is None
        # The stale entry is gone entirely, not just skipped.
        assert cache.stats.bytes == 0
        assert cache.stats.misses == 1

    def test_invalidate_terms_drops_every_kind(self):
        cache = TermCache(4096)
        cache.put("arrays", "a", 1, 16)
        cache.put("stream", "a", 2, 16)
        cache.put("blocks", "a", 3, 16)
        cache.put("arrays", "b", 4, 16)
        dropped = cache.invalidate_terms(["a", "missing"])
        assert dropped == 3
        assert cache.get("arrays", "a") is None
        assert cache.get("arrays", "b") is not None
        assert cache.stats.invalidated_terms == 3

    def test_fold_tombstones_reaches_every_entry(self):
        cache = TermCache(4096)
        cache.put("arrays", "a", 1, 16, dead={7})
        cache.put("arrays", "b", 2, 16)
        cache.fold_tombstones({9})
        assert cache.get("arrays", "a").dead == frozenset({7, 9})
        assert cache.get("arrays", "b").dead == frozenset({9})

    def test_clear_resets_residency_not_counters(self):
        cache = TermCache(1024)
        cache.put("arrays", "a", 1, 16)
        cache.get("arrays", "a")
        cache.clear()
        assert cache.get("arrays", "a") is None
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
        cache.get("arrays", "a")
        cache.put("arrays", "a", 1, 16)
        cache.get("arrays", "a")
        ops = [op for op, _kind, _term in cache.trace]
        assert ops == ["miss", "put", "hit"]

    def test_merge_stats_sums_counters(self):
        one, two = TermCache(1024, shard=0), TermCache(1024, shard=1)
        one.put("arrays", "a", 1, 16)
        one.get("arrays", "a")
        two.get("arrays", "b")
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


def _no_scalar_decode(_record):
    raise AssertionError("the fast path decoded a stream piece in Python")


def _daat_passes(prepared, config, queries, prune, tombstones, cache):
    """Three passes of ``queries`` on one cold DAAT engine: per pass the
    ranking, ``documents_scored``, the skip counters and
    ``peak_resident_bytes`` of every query, and the simulated clock at
    the pass's end."""
    system = materialize(prepared, config)
    cold_start(system)
    if tombstones:
        system.index.tombstones.update(range(1, len(system.index.doctable), 5))
    engine = DocumentAtATimeEngine(system.index, top_k=20, prune=prune)
    engine.term_cache = cache
    observed, clocks = [], []
    for _pass in range(3):
        results = [engine.run_query(text) for text in queries]
        observed.append([
            (
                r.ranking, r.documents_scored, r.documents_skipped,
                r.blocks_skipped, r.peak_resident_bytes,
            )
            for r in results
        ])
        clocks.append(engine.clock.time.copy())
    return observed, clocks


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
    def test_daat_identical_with_hits(self, prepared, daat_pool, monkeypatch, prune):
        # A recording pass then two replay passes, on both arms, on linked
        # and contiguous records, with and without tombstones.  The fast
        # arm must decode every raw piece (stored, replayed, filtered)
        # through its memo: the scalar stream decoder is poisoned.
        queries = daat_pool[:4]
        for config_name in ("mneme-linked", "mneme-cache"):
            for tombstones in (False, True):
                config = config_by_name(config_name)
                clocks = {}
                for fast in (True, False):
                    with use_fastpath(fast), monkeypatch.context() as patch:
                        if fast:
                            patch.setattr(
                                "repro.inquery.streams.decode_record",
                                _no_scalar_decode,
                            )
                        baseline, clocks[fast, False] = _daat_passes(
                            prepared, config, queries, prune, tombstones, None
                        )
                        cache = TermCache(1 << 20)
                        cached, clocks[fast, True] = _daat_passes(
                            prepared, config, queries, prune, tombstones, cache
                        )
                    assert cached == baseline, (config_name, tombstones, fast)
                    assert cache.stats.hits >= cache.stats.misses > 0
                # Observational identity across the arms, cache off and on.
                assert clocks[True, False] == clocks[False, False]
                assert clocks[True, True] == clocks[False, True]

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
