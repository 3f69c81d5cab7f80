"""Admission control: bounded queue, deadlines, priorities, accounting.

Overload is a first-class state of the service: every request the
admission machinery refuses shows up in the shed ledger with a reason
and an error type — the conservation law ``offered = admitted + shed``
holds everywhere, nothing is silently dropped, and the whole shed set
is a pure function of the request trace.
"""

import pytest

from repro.core import materialize
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    RequestSheddedError,
    ServiceUnavailableError,
)
from repro.serve import QueryService, ServiceMetrics
from repro.synth.traffic import TimedRequest


def burst(texts, **kwargs):
    return [
        TimedRequest(text=text, arrival_ms=0.0, seq=seq, **kwargs)
        for seq, text in enumerate(texts)
    ]


def test_queue_limit_sheds_at_arrival(prepared, config, pool):
    service = QueryService(
        materialize(prepared, config), max_batch=1, queue_limit=1
    )
    report = service.process(burst(pool[:4]), name="queue-full")
    assert len(report.served) == 1
    assert report.served[0].text == pool[0]
    assert len(report.shed) == 3
    assert all(row.reason == "queue-full" for row in report.shed)
    assert all(row.error == "RequestSheddedError" for row in report.shed)
    assert all(row.shed_ms == 0.0 for row in report.shed)  # verdict at arrival
    assert report.offered == 4
    assert service.stats.admitted == 1
    assert service.stats.shed_queue_full == 3
    assert report.summary()["shed"]["queue_full"] == 3


def test_unbounded_queue_never_sheds(prepared, config, pool):
    service = QueryService(materialize(prepared, config), queue_limit=0)
    report = service.process(burst(pool[:6]))
    assert report.shed == []
    assert len(report.served) == 6
    assert "shed" not in report.summary()  # legacy schema when nothing shed


def test_deadline_expires_at_wave_formation(prepared, config, pool):
    service = QueryService(materialize(prepared, config), max_batch=1)
    requests = [
        TimedRequest(text=pool[0], arrival_ms=0.0, seq=0),
        TimedRequest(text=pool[1], arrival_ms=0.0, deadline_ms=0.001, seq=1),
    ]
    report = service.process(requests, name="expiry")
    assert [row.text for row in report.served] == [pool[0]]
    assert len(report.shed) == 1
    victim = report.shed[0]
    assert victim.text == pool[1]
    assert victim.reason == "deadline"
    assert victim.error == "DeadlineExceededError"
    assert victim.shed_ms > victim.deadline_ms  # expired after its deadline
    assert service.stats.shed_deadline == 1
    error = victim.as_error()
    assert isinstance(error, DeadlineExceededError)
    assert error.query == pool[1]
    assert error.deadline_ms == victim.deadline_ms


def test_admitted_requests_start_by_their_deadline(prepared, config, pool):
    # The expiry-at-dequeue invariant: whatever is admitted to a wave
    # starts no later than its deadline — this is what bounds admitted
    # queueing delay under overload.
    requests = [
        TimedRequest(text=pool[i % len(pool)], arrival_ms=0.0,
                     deadline_ms=15.0, seq=i)
        for i in range(12)
    ]
    service = QueryService(materialize(prepared, config), max_batch=2)
    report = service.process(requests, name="bounded")
    assert report.served, "some requests must be admitted"
    for row in report.served:
        assert row.start_ms <= row.deadline_ms
    for row in report.shed:
        assert row.reason == "deadline"
    assert report.offered == 12


def test_interactive_beats_batch_at_wave_formation(prepared, config, pool):
    requests = [
        TimedRequest(text=pool[0], arrival_ms=0.0, priority="batch", seq=0),
        TimedRequest(text=pool[1], arrival_ms=0.0, seq=1),
    ]
    service = QueryService(materialize(prepared, config), max_batch=1)
    report = service.process(requests, name="priority")
    assert [row.text for row in report.served] == [pool[1], pool[0]]
    assert report.served[0].priority == "interactive"
    assert report.served[0].start_ms < report.served[1].start_ms


def test_priority_order_is_stable_within_class(prepared, config, pool):
    # Same class, same arrival: stream position (seq) breaks the tie, so
    # the schedule is a pure function of the trace.
    requests = burst([pool[2], pool[0], pool[1]])
    service = QueryService(materialize(prepared, config), max_batch=1)
    report = service.process(requests)
    assert [row.text for row in report.served] == [pool[2], pool[0], pool[1]]


def test_unknown_priority_is_a_config_error(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    with pytest.raises(ConfigError):
        service.process([
            TimedRequest(text=pool[0], arrival_ms=0.0, priority="platinum")
        ])
    with pytest.raises(ConfigError):
        service.serve_one(pool[0], priority="platinum")


def test_serve_one_raises_on_expired_deadline(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    with pytest.raises(DeadlineExceededError) as excinfo:
        service.serve_one(pool[0], deadline_ms=-1.0)
    assert excinfo.value.query == pool[0]
    assert service.stats.shed_deadline == 1
    # The taxonomy: a deadline miss IS a shed IS a service-unavailable.
    assert isinstance(excinfo.value, RequestSheddedError)
    assert isinstance(excinfo.value, ServiceUnavailableError)
    # A live deadline serves normally.
    result = service.serve_one(pool[0], deadline_ms=1e9)
    assert result.ranking


def test_queue_limit_validation(prepared, config, pool):
    with pytest.raises(ConfigError):
        QueryService(materialize(prepared, config), queue_limit=-1)
    # A rejected construction must not touch the backend: every knob is
    # checked before the cold start purges caches and zeroes the clocks.
    backend = materialize(prepared, config)
    QueryService(backend).serve_one(pool[0])  # warm it: clock now non-zero
    before = backend.clock.snapshot()
    assert before.wall_ms > 0.0
    with pytest.raises(ConfigError):
        QueryService(backend, term_cache_bytes=-1)
    assert backend.clock.snapshot() == before


def test_per_class_accounting(prepared, config, pool):
    requests = [
        TimedRequest(text=pool[0], arrival_ms=0.0, seq=0),
        TimedRequest(text=pool[1], arrival_ms=0.0, priority="batch", seq=1),
        TimedRequest(text=pool[2], arrival_ms=0.0, priority="batch",
                     deadline_ms=0.001, seq=2),
        TimedRequest(text=pool[3], arrival_ms=0.0, seq=3),
    ]
    service = QueryService(
        materialize(prepared, config), max_batch=1, queue_limit=3
    )
    report = service.process(requests, name="classes")
    metrics = ServiceMetrics.from_report(report)
    assert metrics.offered == 4
    assert metrics.admitted + metrics.shed_queue_full + metrics.shed_deadline == 4
    interactive = metrics.per_class["interactive"]
    batch = metrics.per_class["batch"]
    assert interactive.offered + batch.offered == 4
    # The deadlined batch request expired (interactive jumped the queue
    # ahead of it, and it could only be dequeued too late).
    assert batch.shed_deadline + batch.shed_queue_full >= 1
    assert metrics.shed_fraction == pytest.approx(
        (metrics.shed_queue_full + metrics.shed_deadline) / 4
    )
    cell = metrics.as_dict()
    assert cell["per_class"]["interactive"]["admitted"] == interactive.admitted
    assert cell["offered"] == 4


def test_sharded_busy_accounting_surfaces_in_stats(prepared, config, pool):
    backend = materialize(prepared, config, shards=2)
    service = QueryService(backend, workers=2, max_batch=4)
    service.process(burst(pool[:8]), name="sharded")
    assert set(service.stats.shard_busy_ms) == {0, 1}
    assert all(busy > 0.0 for busy in service.stats.shard_busy_ms.values())
    assert service.stats.shard_skew >= 1.0


def test_flat_backend_has_no_shard_ledger(prepared, config, pool):
    service = QueryService(materialize(prepared, config))
    service.process(burst(pool[:4]))
    assert service.stats.shard_busy_ms == {}
    assert service.stats.shard_skew == 1.0  # empty ledger: neutral skew


def test_back_compat_no_knobs_is_plain_fifo(prepared, config, pool):
    # With no queue bound, no deadlines, and one class, the refactored
    # event loop must schedule exactly like the historical FIFO service.
    texts = [pool[i % len(pool)] for i in range(10)]
    requests = [
        TimedRequest(text=text, arrival_ms=float(i))
        for i, text in enumerate(texts)
    ]
    service = QueryService(materialize(prepared, config), max_batch=3)
    report = service.process(requests, name="fifo")
    assert [row.text for row in report.served] == texts
    assert report.shed == []
    assert report.queue_limit == 0
