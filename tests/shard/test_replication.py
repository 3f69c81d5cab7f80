"""Replication: byte-identical mirrors, deterministic failover, healing.

The contract under test is the strongest the repo makes: with ``R``
mirrors per shard, killing any single replica changes *nothing
observable* — every ranking stays bit-identical to the single-disk
reference, no query degrades, and the failover itself is recorded in a
deterministic trace.  Losing *every* replica of a shard falls back to
the established degraded path (serve partial evidence, never raise),
and :meth:`ShardedIRSystem.rereplicate` rebuilds a lost mirror
byte-identical to its survivor while the group keeps serving.
"""

import pytest

from repro.core import materialize
from repro.errors import ConfigError, ReplicaFailedError, ShardUnavailableError
from repro.faults.plan import FaultPlan
from repro.shard import materialize_sharded, measure_sharded_run


def _rankings(metrics):
    return [r.ranking for r in metrics.results]


# -- building mirrors ------------------------------------------------------

def test_mirrors_are_byte_identical_at_build(prepared, config):
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=2)
    assert sharded.n_shards == 2
    assert sharded.replicas == 2
    for group in sharded.replica_groups:
        reference = group[0].fs.disk._blocks
        for mirror in group[1:]:
            assert mirror.fs.disk._blocks == reference


def test_replicas_require_sharding(prepared, config):
    with pytest.raises(ConfigError):
        materialize(prepared, config, replicas=1)


def test_unreplicated_build_is_unchanged(prepared, config):
    sharded = materialize_sharded(prepared, config, n_shards=3)
    assert sharded.replicas == 0
    assert [len(group) for group in sharded.replica_groups] == [1, 1, 1]
    assert sharded.healthy_replicas(0) == [0]


def test_replica_health_ledger(prepared, config):
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=1)
    sharded.mark_down(1, replica_id=0)
    assert sharded.healthy_replicas(1) == [1]
    assert sharded.replicas_down == ((1, 0),)
    assert sharded.replica_health()[1] == {"healthy": [1], "failed": [0]}
    assert sharded.live_shards == [0, 1]  # a survivor keeps the shard live
    sharded.mark_up(1, replica_id=0)
    assert sharded.healthy_replicas(1) == [0, 1]


# -- failover: the identity contract ---------------------------------------

@pytest.mark.parametrize("victim", [(0, 0), (1, 0), (1, 1)])
def test_single_replica_kill_is_invisible(
    prepared, config, query_sets, reference_rankings, victim
):
    """Any one dead replica: completeness 1.0, rankings bit-identical."""
    shard_id, replica_id = victim
    query_set = query_sets[0]
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=1)
    sharded.fault_shard(
        shard_id,
        FaultPlan.dead_disk(label=f"s{shard_id}/r{replica_id}"),
        replica_id=replica_id,
    )
    metrics = measure_sharded_run(
        sharded, query_set.queries, query_set_name=query_set.name
    )
    assert metrics.degraded_queries == 0
    assert all(r.completeness == 1.0 for r in metrics.results)
    assert _rankings(metrics) == reference_rankings[query_set.name]
    if replica_id == 0:
        # Primary died: the scheduler must have failed over and said so.
        assert (shard_id, 0) in metrics.replicas_down
        assert any(
            event["shard"] == shard_id and event["failed_replica"] == 0
            for event in metrics.failovers
        )
        assert all(round[shard_id] == 1 for round in metrics.served_by)
    else:
        # A dead mirror under primary routing is never even touched.
        assert metrics.failovers == []
        assert all(round[shard_id] == 0 for round in metrics.served_by)


def test_daat_failover_is_invisible(prepared, config, query_sets, baseline):
    from repro.core.metrics import cold_start
    from repro.inquery.daat import DocumentAtATimeEngine, daat_queries

    flat = daat_queries(query_sets[0].queries)
    assert flat
    cold_start(baseline)
    engine = DocumentAtATimeEngine(baseline.index, top_k=50)
    reference = [r.ranking for r in engine.run_batch(flat)]
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=1)
    sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"), replica_id=0)
    metrics = measure_sharded_run(sharded, flat, engine="daat")
    assert metrics.degraded_queries == 0
    assert _rankings(metrics) == reference
    assert (0, 0) in metrics.replicas_down


def test_failover_trace_is_deterministic(prepared, config, query_sets):
    """Same build, same kill, twice: byte-identical traces and ledgers."""
    query_set = query_sets[1]

    def run():
        sharded = materialize_sharded(
            prepared, config, n_shards=2, replicas=1
        )
        sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"))
        metrics = measure_sharded_run(
            sharded, query_set.queries, query_set_name=query_set.name
        )
        return (
            _rankings(metrics),
            metrics.failovers,
            metrics.served_by,
            sorted(metrics.replica_busy_ms.items()),
        )

    assert run() == run()


# -- composition with the degraded path (satellite: double kill) -----------

def test_double_kill_falls_back_to_degraded_path(
    prepared, config, query_sets
):
    """Both replicas of one shard dead: PR 3/4 semantics, deterministic."""
    query_set = query_sets[0]

    def run(replicated):
        sharded = materialize_sharded(
            prepared, config, n_shards=2, replicas=1 if replicated else 0
        )
        sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"), replica_id=0)
        if replicated:
            sharded.fault_shard(
                0, FaultPlan.dead_disk(label="s0/r1"), replica_id=1
            )
        metrics = measure_sharded_run(
            sharded, query_set.queries, query_set_name=query_set.name
        )
        return metrics

    metrics = run(replicated=True)
    # Served, not raised — and degraded exactly like the unreplicated
    # dead-disk path, because the last survivor always keeps serving.
    assert metrics.degraded_queries == len(query_set.queries)
    assert all(r.completeness < 1.0 for r in metrics.results)
    baseline = run(replicated=False)
    assert _rankings(metrics) == _rankings(baseline)
    assert [r.terms_failed for r in metrics.results] == [
        r.terms_failed for r in baseline.results
    ]
    # Determinism of the composed failure:
    repeat = run(replicated=True)
    assert _rankings(repeat) == _rankings(metrics)
    assert repeat.failovers == metrics.failovers


def test_last_replica_is_never_marked_down(prepared, config, query_sets):
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=1)
    sharded.fault_shard(0, FaultPlan.dead_disk(), replica_id=0)
    sharded.fault_shard(0, FaultPlan.dead_disk(), replica_id=1)
    measure_sharded_run(sharded, query_sets[0].queries[:2])
    # The first replica was marked down on failover; the survivor must
    # not be, or the shard would leave the live set and change results.
    assert sharded.replicas_down == ((0, 0),)
    assert sharded.live_shards == [0, 1]


# -- re-replication --------------------------------------------------------

def test_rereplicate_rebuilds_byte_identical_mirror(
    prepared, config, query_sets, reference_rankings
):
    query_set = query_sets[0]
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=1)
    sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"))
    measure_sharded_run(sharded, query_set.queries[:2])
    assert sharded.replicas_down == ((0, 0),)

    report = sharded.rereplicate(0, 0)
    assert report["verified"] is True
    assert report["source_replica"] == 1
    assert report["blocks_scanned"] > 0
    assert report["source_scan_ms"] > 0.0  # the survivor paid for the copy
    assert sharded.replicas_down == ()
    assert (
        sharded.replica(0, 0).fs.disk._blocks
        == sharded.replica(0, 1).fs.disk._blocks
    )
    # The healed group serves full-fidelity results again, from the
    # replacement primary (no failovers, nothing degraded).
    metrics = measure_sharded_run(
        sharded, query_set.queries, query_set_name=query_set.name
    )
    assert metrics.degraded_queries == 0
    assert metrics.failovers == []
    assert _rankings(metrics) == reference_rankings[query_set.name]
    assert all(round[0] == 0 for round in metrics.served_by)


def test_rereplicate_needs_a_healthy_source(prepared, config):
    sharded = materialize_sharded(prepared, config, n_shards=2, replicas=0)
    with pytest.raises(ReplicaFailedError):
        sharded.rereplicate(0, 0)  # no other replica to copy from


# -- error taxonomy (satellite: replica-carrying errors) -------------------

def test_shard_unavailable_error_carries_replica_id():
    error = ShardUnavailableError(2, reason="fenced", replica_id=1)
    assert error.shard_id == 2
    assert error.replica_id == 1
    assert "replica 1" in str(error)
    bare = ShardUnavailableError(2, reason="fenced")
    assert bare.replica_id is None
    assert "replica" not in str(bare)


def test_replica_failed_error_is_a_shard_unavailable():
    error = ReplicaFailedError(1, 2, reason="platter diverged")
    assert isinstance(error, ShardUnavailableError)
    assert (error.shard_id, error.replica_id) == (1, 2)
    assert "platter diverged" in str(error)
