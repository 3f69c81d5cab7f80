"""The scheduler is one thread and one round driver.

Two contracts: every shard task runs inline on the caller's thread in
shard-id order (simulated clocks make real concurrency worthless, so
there is none), and ``run_batch`` is nothing but ``run_wave`` applied
to one query at a time with the rounds' ledgers folded in order.
"""

import threading

import pytest

from repro.core.metrics import cold_start
from repro.faults.plan import FaultPlan
from repro.inquery.daat import DocumentAtATimeEngine, daat_queries
from repro.shard import ShardTaatRunner, materialize_sharded


def _record(monkeypatch, cls, method, calls, shard_of):
    original = getattr(cls, method)

    def recorded(self, *args, **kwargs):
        calls.append((method, shard_of(self), threading.get_ident()))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, recorded)


@pytest.mark.parametrize("engine", ["taat", "daat"])
def test_shard_tasks_run_on_the_calling_thread_in_shard_order(
    monkeypatch, prepared, config, query_sets, engine
):
    sharded = materialize_sharded(prepared, config, n_shards=3)
    shard_of_index = {
        id(shard.index): shard_id for shard_id, shard in enumerate(sharded.shards)
    }
    calls = []
    if engine == "taat":
        texts = query_sets[1].queries[:3]
        phases = ["collect_many", "score_many"]
        for phase in phases:
            _record(
                monkeypatch, ShardTaatRunner, phase, calls,
                lambda runner: shard_of_index[id(runner.system.index)],
            )
    else:
        texts = daat_queries(query_sets[0].queries)[:1]
        phases = ["run_query"]
        _record(
            monkeypatch, DocumentAtATimeEngine, "run_query", calls,
            lambda daat: shard_of_index[id(daat.index)],
        )
    assert texts
    sharded.scheduler(engine=engine).run_wave(texts)
    me = threading.get_ident()
    assert calls == [
        (phase, shard_id, me) for phase in phases for shard_id in range(3)
    ]


def _faulted_2x2(prepared, config):
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=1)
    sharded.fault_shard(0, FaultPlan.dead_disk(), replica_id=0)
    for group in sharded.replica_groups:
        for machine in group:
            cold_start(machine)  # a dead disk only fires on real reads
    sharded.clock.reset()
    return sharded


def test_run_batch_is_the_concatenation_of_single_query_waves(
    prepared, config, query_sets
):
    queries = query_sets[1].queries[:4] + query_sets[2].queries[:2]
    batch = _faulted_2x2(prepared, config).scheduler().run_batch(queries)
    one_by_one = _faulted_2x2(prepared, config).scheduler()
    waves = [one_by_one.run_wave([text]) for text in queries]

    assert batch.stats.failovers, "the dead replica never failed over"
    assert [(r.ranking, r.degraded) for r in batch.results] == [
        (r.ranking, r.degraded) for wave in waves for r in wave.results
    ]
    assert batch.per_query_ms == [ms for wave in waves for ms in wave.per_query_ms]
    assert batch.stats.served_by == [
        served for wave in waves for served in wave.stats.served_by
    ]
    assert batch.stats.failovers == [
        event for wave in waves for event in wave.stats.failovers
    ]
    busy = {}
    critical = [0.0, 0.0, 0.0]
    for wave in waves:
        for shard_id, ms in wave.stats.busy_ms.items():
            busy[shard_id] = busy.get(shard_id, 0.0) + ms
        for slot, part in enumerate(("user_ms", "system_ms", "io_ms")):
            critical[slot] += getattr(wave.critical, part)
    assert batch.stats.busy_ms == busy
    assert [
        batch.critical.user_ms, batch.critical.system_ms, batch.critical.io_ms
    ] == critical
    assert batch.stats.barriers == sum(wave.stats.barriers for wave in waves)
