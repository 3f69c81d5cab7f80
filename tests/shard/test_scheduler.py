"""Scheduler accounting: critical path, resource bill, queue depth."""

import pytest

from repro.core.metrics import measure_run
from repro.shard import materialize_sharded, measure_sharded_run


@pytest.fixture(scope="module")
def sharded4(prepared, config):
    return materialize_sharded(prepared, config, n_shards=4)


def test_critical_path_bounded_by_sum(sharded4, query_sets):
    query_set = query_sets[0]
    metrics = measure_sharded_run(
        sharded4, query_set.queries, query_set_name=query_set.name
    )
    # the critical path is real time on some machine: it cannot beat the
    # slowest shard alone, nor exceed all machine-time laid end to end
    slowest = max(m.wall_s for m in metrics.per_shard)
    assert metrics.wall_s >= slowest
    assert metrics.wall_s >= metrics.coordinator_wall_s
    assert metrics.wall_s <= metrics.wall_s_sum + 1e-9
    assert metrics.wall_s_sum == pytest.approx(
        sum(m.wall_s for m in metrics.per_shard) + metrics.coordinator_wall_s
    )
    # Parallel efficiency wall_s_sum / (N * wall_s) lies in (0, 1].
    assert 0.0 < metrics.wall_s_sum <= len(metrics.per_shard) * metrics.wall_s


def test_physical_work_is_summed_across_shards(sharded4, query_sets):
    query_set = query_sets[0]
    metrics = measure_sharded_run(
        sharded4, query_set.queries, query_set_name=query_set.name
    )
    assert metrics.io_inputs == sum(m.io_inputs for m in metrics.per_shard)
    assert metrics.bytes_from_file == sum(
        m.bytes_from_file for m in metrics.per_shard
    )
    assert metrics.record_lookups == sum(
        m.record_lookups for m in metrics.per_shard
    )
    for pool, stats in metrics.buffer_stats.items():
        assert stats.refs == sum(
            m.buffer_stats[pool].refs
            for m in metrics.per_shard
            if pool in m.buffer_stats
        )


def test_scheduler_ledger_shape(sharded4, query_sets):
    query_set = query_sets[0]
    n_queries = len(query_set.queries)
    metrics = measure_sharded_run(
        sharded4, query_set.queries, query_set_name=query_set.name
    )
    # TAAT runs two waves (collect, score) over four shards per query
    assert metrics.barriers == 2 * n_queries
    assert metrics.tasks == 2 * 4 * n_queries
    assert 1 <= metrics.max_queue_depth <= 4
    assert metrics.shard_skew >= 1.0
    assert len(metrics.per_shard) == 4
    assert metrics.shards_down == ()


def test_sharded_io_close_to_unsharded(baseline, sharded4, query_sets):
    """Partitioning must not inflate physical record reads.

    Record lookups can only go *down* per shard (a shard skips terms it
    stores no postings for); the summed count is bounded by the
    unsharded engine's and every attempted term is still accounted.
    """
    query_set = query_sets[0]
    unsharded = measure_run(
        baseline, query_set.queries, query_set_name=query_set.name
    )
    sharded = measure_sharded_run(
        sharded4, query_set.queries, query_set_name=query_set.name
    )
    assert sharded.record_lookups <= 4 * unsharded.record_lookups
    assert sharded.degraded_queries == 0


def test_down_shard_excluded_from_ledger(prepared, config, query_sets):
    sharded = materialize_sharded(prepared, config, n_shards=3)
    sharded.mark_down(1)
    query_set = query_sets[0]
    metrics = measure_sharded_run(
        sharded, query_set.queries, query_set_name=query_set.name
    )
    assert len(metrics.per_shard) == 2
    assert metrics.shards_down == (1,)
    assert metrics.tasks == 2 * 2 * len(query_set.queries)
