"""Measuring a sharded run with the paper's methodology, per shard.

Each shard is measured exactly like a single-disk system — cold start,
:class:`~repro.core.metrics.SystemSnapshot` before, difference after —
so every per-shard breakdown is a bona fide :class:`RunMetrics` directly
comparable with the unsharded tables.  On top of those the sharded
metrics add the two quantities that only exist with N machines:

* ``wall_s`` becomes the **critical path** — per query phase, the
  slowest shard's simulated time plus the coordinator's serial exchange
  and merge work.  This is what an N-machine deployment's wall clock
  would read, and what the scaling benchmark's speedup is computed from.
* ``wall_s_sum`` is total simulated machine time across shards and
  coordinator — the resource bill.  ``wall_s_sum / wall_s`` close to N
  means the fan-out actually ran in parallel; ``shard_skew`` near 1.0
  means the partitioner spread the load evenly.

With replication a "shard" is a *group* of byte-identical machines; the
shard's entry in ``per_shard`` sums the counters of every replica that
was healthy when the run began (a failed-over attempt's reads happened
on a real machine and stay on the bill), while the results-derived
fields come from whatever replica actually served each query.

I/A/B counters and per-pool buffer statistics are summed across shards:
they count physical work, which does not care which machine did it.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.metrics import RunMetrics, SystemSnapshot, cold_start
from ..inquery import QueryResult
from ..inquery.engine import DEFAULT_TOP_K
from ..mneme import BufferStats
from .system import ShardedIRSystem


@dataclass
class ShardRunMetrics(RunMetrics):
    """RunMetrics over the merged results, plus the sharding ledger."""

    #: Total simulated machine-time across shards + coordinator (seconds).
    wall_s_sum: float = 0.0
    #: Coordinator-only time (df exchange + merge), part of ``wall_s``.
    coordinator_wall_s: float = 0.0
    per_shard: List[RunMetrics] = field(default_factory=list)
    tasks: int = 0
    barriers: int = 0
    max_queue_depth: int = 0
    shard_skew: float = 1.0
    shards_down: Tuple[int, ...] = ()
    #: Mirror count R of the measured system (0 = unreplicated).
    replicas: int = 0
    #: ``(shard, replica)`` pairs that were marked down when the run ended.
    replicas_down: Tuple[Tuple[int, int], ...] = ()
    #: Simulated busy ms per ``(shard, replica)``, failed attempts included.
    replica_busy_ms: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: One ``{shard: replica}`` map per scheduler round.
    served_by: List[Dict[int, int]] = field(default_factory=list)
    #: Failover events in deterministic round/shard order (see scheduler).
    failovers: List[Dict[str, object]] = field(default_factory=list)

    @property
    def parallel_efficiency(self) -> float:
        """``wall_s_sum / (N * wall_s)``: 1.0 is perfect scaling."""
        if self.wall_s <= 0 or not self.per_shard:
            return 0.0
        return self.wall_s_sum / (len(self.per_shard) * self.wall_s)


def _sum_buffer_stats(per_shard: List[RunMetrics]) -> Dict[str, BufferStats]:
    """Element-wise sum of each shard's per-pool buffer counters."""
    totals: Dict[str, BufferStats] = {}
    for metrics in per_shard:
        for pool, stats in metrics.buffer_stats.items():
            if pool not in totals:
                totals[pool] = BufferStats()
            total = totals[pool]
            total.refs += stats.refs
            total.hits += stats.hits
            total.insertions += stats.insertions
            total.evictions += stats.evictions
    return totals


def _group_metrics(
    parts: List[RunMetrics],
    results: List[QueryResult],
    query_set_name: str,
    queries: int,
    keep_results: bool,
) -> RunMetrics:
    """Fold one replica group's counter deltas into a shard-level view.

    Counters sum across replicas (physical work on real machines);
    results-derived fields come from the queries the group served.
    """
    return RunMetrics(
        system=parts[0].system,
        query_set=query_set_name,
        queries=queries,
        wall_s=sum(p.wall_s for p in parts),
        user_s=sum(p.user_s for p in parts),
        system_io_s=sum(p.system_io_s for p in parts),
        io_inputs=sum(p.io_inputs for p in parts),
        file_accesses=sum(p.file_accesses for p in parts),
        record_lookups=sum(p.record_lookups for p in parts),
        bytes_from_file=sum(p.bytes_from_file for p in parts),
        buffer_stats=_sum_buffer_stats(parts),
        results=results if keep_results else [],
        degraded_queries=sum(1 for r in results if r.degraded),
        terms_failed=sum(r.terms_failed for r in results),
        documents_skipped=sum(
            getattr(r, "documents_skipped", 0) for r in results
        ),
        blocks_skipped=sum(getattr(r, "blocks_skipped", 0) for r in results),
        prune_threshold_updates=sum(
            getattr(r, "prune_threshold_updates", 0) for r in results
        ),
    )


def measure_sharded_run(
    sharded: ShardedIRSystem,
    queries: List[str],
    query_set_name: str = "",
    top_k: int = DEFAULT_TOP_K,
    engine: str = "taat",
    cold: bool = True,
    keep_results: bool = True,
    prune: str = "off",
    replica_policy: str = "primary",
    policy_seed: int = 0,
    term_cache_bytes: int = 0,
) -> ShardRunMetrics:
    """Run a query set through the shard scheduler and measure everything."""
    live = sharded.live_shards
    groups = {
        shard_id: sharded.healthy_replicas(shard_id) for shard_id in live
    }
    if cold:
        for shard_id in live:
            for replica_id in groups[shard_id]:
                cold_start(sharded.replica(shard_id, replica_id))
        sharded.clock.reset()
    snapshots = {
        (shard_id, replica_id): SystemSnapshot(
            sharded.replica(shard_id, replica_id)
        )
        for shard_id in live
        for replica_id in groups[shard_id]
    }
    coordinator_start = sharded.clock.snapshot()
    scheduler = sharded.scheduler(
        top_k=top_k, engine=engine, prune=prune,
        replica_policy=replica_policy, policy_seed=policy_seed,
        term_cache_bytes=term_cache_bytes,
    )
    outcome = scheduler.run_batch(queries)
    coordinator = sharded.clock.since(coordinator_start)
    term_stats = None
    if term_cache_bytes > 0:
        from ..serve.termcache import merge_stats

        term_stats = merge_stats(
            cache for _s, _r, cache in scheduler.term_caches()
        )

    per_shard = []
    for shard_id in live:
        parts = [
            snapshots[(shard_id, replica_id)].metrics(
                [], query_set_name=query_set_name,
                queries=len(queries), keep_results=False,
            )
            for replica_id in groups[shard_id]
        ]
        per_shard.append(_group_metrics(
            parts,
            outcome.per_shard_results[shard_id],
            query_set_name,
            len(queries),
            keep_results,
        ))
    shard_wall_sum = sum(m.wall_s for m in per_shard)
    results = outcome.results
    return ShardRunMetrics(
        system=sharded.name,
        query_set=query_set_name,
        queries=len(queries),
        wall_s=outcome.critical.wall_ms / 1000.0,
        user_s=outcome.critical.user_ms / 1000.0,
        system_io_s=outcome.critical.system_io_ms / 1000.0,
        io_inputs=sum(m.io_inputs for m in per_shard),
        file_accesses=sum(m.file_accesses for m in per_shard),
        record_lookups=sum(m.record_lookups for m in per_shard),
        bytes_from_file=sum(m.bytes_from_file for m in per_shard),
        buffer_stats=_sum_buffer_stats(per_shard),
        results=results if keep_results else [],
        degraded_queries=sum(1 for r in results if r.degraded),
        terms_failed=sum(r.terms_failed for r in results),
        # Pruning counters live on the per-shard engine results (the
        # merged coordinator results don't carry them), so the summed
        # view comes from the per-shard metrics.
        documents_skipped=sum(m.documents_skipped for m in per_shard),
        blocks_skipped=sum(m.blocks_skipped for m in per_shard),
        prune_threshold_updates=sum(
            m.prune_threshold_updates for m in per_shard
        ),
        term_cache_hits=term_stats.hits if term_stats else 0,
        term_cache_misses=term_stats.misses if term_stats else 0,
        term_cache_evictions=term_stats.evictions if term_stats else 0,
        term_cache_bytes=term_stats.bytes if term_stats else 0,
        wall_s_sum=shard_wall_sum + coordinator.wall_ms / 1000.0,
        coordinator_wall_s=coordinator.wall_ms / 1000.0,
        per_shard=per_shard,
        tasks=outcome.stats.tasks,
        barriers=outcome.stats.barriers,
        max_queue_depth=outcome.stats.max_queue_depth,
        shard_skew=outcome.stats.shard_skew,
        shards_down=tuple(sharded.shards_down),
        replicas=sharded.replicas,
        replicas_down=tuple(sharded.replicas_down),
        replica_busy_ms=dict(outcome.stats.replica_busy_ms),
        served_by=list(outcome.stats.served_by),
        failovers=list(outcome.stats.failovers),
    )
