"""The service contract: waves, sharing, hits, degradation, lifecycle."""

import pytest

from repro.core import materialize
from repro.core.metrics import cold_start
from repro.errors import ConfigError, ServiceUnavailableError
from repro.faults.plan import FaultPlan
from repro.inquery import RetrievalEngine
from repro.serve import QueryService, ResultCache
from repro.synth.traffic import TimedRequest


def burst(texts):
    return [TimedRequest(text=text, arrival_ms=0.0) for text in texts]


def test_serve_one_matches_cold_engine(prepared, config, pool, taat_reference):
    service = QueryService(materialize(prepared, config))
    for text in pool[:6]:
        assert service.serve_one(text).ranking == taat_reference[text]


def test_hit_is_bit_identical_to_cold_evaluation(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    text = pool[0]
    first = service.serve_one(text)
    second = service.serve_one(text)
    assert service.stats.cache_hits == 1
    assert second.ranking == first.ranking
    assert second.query == text
    # The hit must also match a *fresh* engine on a cold system, not
    # just the warmed-up first evaluation.
    system = materialize(prepared, config)
    cold_start(system)
    cold = RetrievalEngine(
        system.index, top_k=50,
        use_reservation=config.use_reservation,
    ).run_query(text)
    assert second.ranking == cold.ranking


def test_sharded_serving_matches_single_disk(
    prepared, config, pool, taat_reference
):
    backend = materialize(prepared, config, shards=2)
    service = QueryService(backend, workers=2, max_batch=4)
    report = service.process(burst(pool[:8]), name="sharded")
    assert len(report.served) == 8
    for row in report.served:
        assert row.result.ranking == taat_reference[row.text]


def test_daat_serving_matches_single_disk(
    prepared, config, daat_pool, daat_reference
):
    service = QueryService(materialize(prepared, config), engine="daat")
    report = service.process(burst(daat_pool), name="daat")
    for row in report.served:
        assert row.result.ranking == daat_reference[row.text]


def test_in_wave_duplicates_share_one_evaluation(prepared, config, pool):
    text = pool[0]
    service = QueryService(materialize(prepared, config), max_batch=4)
    report = service.process(burst([text, text.upper(), text, pool[1]]))
    outcomes = [row.outcome for row in report.served]
    assert outcomes == ["miss", "shared", "shared", "miss"]
    assert service.stats.evaluated == 2
    rankings = {tuple(row.result.ranking) for row in report.served[:3]}
    assert len(rankings) == 1
    # Shared rows echo their own spelling, not the owner's.
    assert report.served[1].result.query == text.upper()


def test_cache_off_disables_sharing(prepared, config, pool):
    text = pool[0]
    service = QueryService(
        materialize(prepared, config), use_cache=False, max_batch=4
    )
    report = service.process(burst([text, text, text]))
    assert [row.outcome for row in report.served] == ["miss"] * 3
    assert service.stats.evaluated == 3
    assert service.cache is None
    assert report.cache_stats is None


def test_report_cache_stats_count_only_their_own_run(prepared, config, pool):
    text = pool[0]
    service = QueryService(materialize(prepared, config), max_batch=1)
    first = service.process(burst([text] * 3), name="first")
    assert (first.cache_stats.hits, first.cache_stats.misses) == (2, 1)
    second = service.process(burst([text] * 3 + [pool[1]]), name="second")
    # The first report is not rewritten by the second run.
    assert (first.cache_stats.hits, first.cache_stats.misses) == (2, 1)
    assert (second.cache_stats.hits, second.cache_stats.misses) == (3, 1)
    assert second.cache_stats is not first.cache_stats
    assert service.cache.stats.hits == 5


def test_repeat_heavy_stream_hits_after_first_wave(prepared, config, pool):
    text = pool[0]
    service = QueryService(materialize(prepared, config), max_batch=1)
    report = service.process(burst([text] * 4))
    assert [row.outcome for row in report.served] == [
        "miss", "hit", "hit", "hit"
    ]
    # Latency includes queueing (burst arrivals), so compare service
    # time: a hit pays only the normalize/probe overhead, a miss pays
    # the evaluation too.
    service_times = [
        row.completion_ms - row.start_ms for row in report.served
    ]
    assert service_times[1] < service_times[0]


def test_degraded_results_served_but_never_cached(prepared, config, pool):
    backend = materialize(prepared, config, shards=2)
    backend.fault_shard(0, FaultPlan.dead_disk())
    service = QueryService(backend, workers=2)
    report = service.process(burst(pool[:6]), name="dead")
    degraded = [
        row for row in report.served if row.result.completeness < 1.0
    ]
    assert degraded, "a dead shard must actually degrade results"
    assert len(service.cache) == 0
    assert service.cache.stats.rejected_degraded == len(report.served)
    assert service.stats.degraded_served == len(report.served)


def test_shed_requests_never_touch_the_cache(prepared, config, pool):
    # Admission hygiene: a shed request is refused before normalization,
    # so it can neither insert a result nor even register a lookup —
    # cache state and stats are exactly what the admitted request left.
    service = QueryService(
        materialize(prepared, config), max_batch=1, queue_limit=1
    )
    report = service.process(burst(pool[:5]), name="shed-hygiene")
    assert len(report.shed) == 4
    assert len(service.cache) == 1        # only the admitted request's entry
    assert service.cache.stats.lookups == 1
    assert service.cache.stats.insertions == 1
    shed_keys = {service.key_of(row.text) for row in report.shed}
    resident = shed_keys - {service.key_of(report.served[0].text)}
    for key in resident:
        assert key not in service.cache  # __contains__ does not count


def test_deadline_expired_requests_never_touch_the_cache(prepared, config, pool):
    service = QueryService(materialize(prepared, config), max_batch=1)
    requests = [
        TimedRequest(text=pool[0], arrival_ms=0.0, seq=0),
        TimedRequest(text=pool[1], arrival_ms=0.0, deadline_ms=0.001, seq=1),
        TimedRequest(text=pool[2], arrival_ms=0.0, deadline_ms=0.001, seq=2),
    ]
    report = service.process(requests, name="expiry-hygiene")
    assert len(report.shed) == 2
    assert all(row.reason == "deadline" for row in report.shed)
    assert len(service.cache) == 1
    assert service.cache.stats.lookups == 1
    assert service.cache.stats.insertions == 1
    # A later identical query is a genuine miss: nothing was pre-warmed
    # on the expired requests' behalf.
    service.serve_one(pool[1])
    assert service.stats.cache_hits == 0


def test_close_makes_service_unavailable(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    service.serve_one(pool[0])
    service.close()
    with pytest.raises(ServiceUnavailableError):
        service.serve_one(pool[0])
    with pytest.raises(ServiceUnavailableError):
        service.process(burst(pool[:2]))


def test_invalidate_cache_forces_reevaluation(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    text = pool[0]
    service.serve_one(text)
    assert service.invalidate_cache("index rebuilt") == 1
    service.serve_one(text)
    assert service.stats.cache_hits == 0
    assert service.stats.evaluated == 2
    assert service.cache.epoch == 1


def test_shared_cache_across_services(prepared, config, pool):
    shared = ResultCache(capacity=16)
    first = QueryService(materialize(prepared, config), cache=shared)
    first.serve_one(pool[0])
    second = QueryService(materialize(prepared, config), cache=shared)
    second.serve_one(pool[0])
    assert shared.stats.hits == 1


def test_wave_admission_respects_arrivals(prepared, config, pool):
    service = QueryService(materialize(prepared, config), max_batch=8)
    late = 10_000_000.0  # far past any plausible first-wave completion
    requests = [
        TimedRequest(text=pool[0], arrival_ms=0.0),
        TimedRequest(text=pool[1], arrival_ms=0.0),
        TimedRequest(text=pool[2], arrival_ms=late),
    ]
    report = service.process(requests)
    assert report.waves == 2
    assert report.served[2].start_ms >= late


def test_config_validation():
    with pytest.raises(ConfigError):
        QueryService.__new__(QueryService).__init__(object(), engine="bogus")


def test_key_of_agrees_across_spellings(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    text = pool[0]
    assert service.key_of(text) == service.key_of(text.upper())
    assert service.key_of(text) != service.key_of(pool[1])


# -- live rebalancing (shard split under the service) ----------------------

def test_rebalance_invalidates_cache_epoch(prepared, config, pool):
    """A pre-split cache entry must never be served post-split: the
    cutover bumps the cache epoch, so the first post-split occurrence of
    a previously cached query is a genuine miss (with the same bits)."""
    service = QueryService(materialize(prepared, config, shards=2), workers=2)
    text = pool[0]
    before = service.serve_one(text)
    assert service.serve_one(text).ranking == before.ranking
    assert service.stats.cache_hits == 1
    epoch_before = service.cache.epoch

    report = service.rebalance(factor=2)
    assert report.new_shards == 4
    assert service.backend.n_shards == 4
    assert service.cache.epoch == epoch_before + 1
    assert service.stats.rebalances == 1
    assert len(service.cache) == 0

    after = service.serve_one(text)
    assert after.ranking == before.ranking
    # Re-evaluated, not served from the stale epoch.
    assert service.stats.cache_hits == 1
    assert service.stats.evaluated == 2


def test_rebalance_mid_stream_is_invisible(
    prepared, config, pool, taat_reference
):
    """Half the pool on N=2, split live, the rest on N=4: every served
    result still bit-identical to the cold single-disk reference."""
    service = QueryService(
        materialize(prepared, config, shards=2, replicas=1), workers=2
    )
    half = len(pool) // 2
    first = service.process(burst(pool[:half]), name="pre-split")
    service.rebalance(factor=2)
    second = service.process(burst(pool[half:]), name="post-split")
    for report in (first, second):
        for row in report.served:
            assert row.result.ranking == taat_reference[row.text], row.text
    assert service.stats.rebalances == 1
    assert service.stats.degraded_served == 0


def test_term_cache_lifetime_stats_survive_rebalance(prepared, config, pool):
    """Retired caches keep their counters and their peak; ``bytes`` is
    what the cold replacements hold."""
    service = QueryService(
        materialize(prepared, config, shards=2), workers=2,
        term_cache_bytes=64 * 1024,
    )
    service.process(burst(pool), name="pre-split")
    before = service.term_cache_stats()
    assert before.peak_bytes > 0
    service.rebalance(factor=2)
    after = service.term_cache_stats()
    assert after.peak_bytes == before.peak_bytes
    assert after.bytes == 0
    assert (after.lookups, after.hits) == (before.lookups, before.hits)


def test_rebalance_requires_sharded_backend(prepared, config):
    service = QueryService(materialize(prepared, config))
    with pytest.raises(ConfigError):
        service.rebalance()


def test_service_absorbs_replica_failover(prepared, config, pool, taat_reference):
    """A dead primary behind the service: zero degraded results, the
    failover surfaced in ServiceStats, rankings still reference-equal."""
    backend = materialize(prepared, config, shards=2, replicas=1)
    backend.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"), replica_id=0)
    service = QueryService(backend, workers=2)
    report = service.process(burst(pool[:6]), name="failover")
    assert service.stats.degraded_served == 0
    assert service.stats.failovers >= 1
    assert any(
        replica == 1 for (shard, replica) in service.stats.replica_busy_ms
    )
    for row in report.served:
        assert row.result.ranking == taat_reference[row.text]
