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


#: RunMetrics counters of physical work and pruning effect: both sum
#: across replicas and across shards.
_SUMMED = (
    "io_inputs", "file_accesses", "record_lookups", "bytes_from_file",
    "documents_skipped", "blocks_skipped", "prune_threshold_updates",
)


def _fold(
    parts: List[RunMetrics], results: List[QueryResult]
) -> Dict[str, object]:
    """The ten counters each level of a sharded run adds up.

    Work counters and per-pool buffers sum over ``parts``; degraded and
    failed-term counts come from the ``results`` the level served (a
    query degraded on two shards is one degraded merged query).
    """
    counters: Dict[str, object] = {
        name: sum(getattr(part, name) for part in parts) for name in _SUMMED
    }
    buffers: Dict[str, BufferStats] = {}
    for part in parts:
        for pool, stats in part.buffer_stats.items():
            buffers[pool] = buffers.get(pool, BufferStats()) + stats
    counters["buffer_stats"] = buffers
    counters["degraded_queries"] = sum(1 for r in results if r.degraded)
    counters["terms_failed"] = sum(r.terms_failed for r in results)
    return counters


def _group_metrics(
    parts: List[RunMetrics],
    results: List[QueryResult],
    query_set_name: str,
    queries: int,
    keep_results: bool,
) -> RunMetrics:
    """Fold one replica group's counter deltas into a shard-level view.

    Counters sum across replicas (physical work on real machines);
    results-derived fields come from the queries the group served, which
    ``parts[0]`` was measured with.
    """
    return RunMetrics(
        system=parts[0].system,
        query_set=query_set_name,
        queries=queries,
        wall_s=sum(p.wall_s for p in parts),
        user_s=sum(p.user_s for p in parts),
        system_io_s=sum(p.system_io_s for p in parts),
        results=results if keep_results else [],
        **_fold(parts, results),
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
    # Imported lazily: the serve layer imports this package.
    from ..serve.termcache import merge_stats

    term_stats = merge_stats(cache for _s, _r, cache in scheduler.term_caches())

    per_shard = []
    for shard_id in live:
        served = outcome.per_shard_results[shard_id]
        # The group's results ride on its first replica's part, so the
        # pruning counters derived from them are counted once.
        parts = [
            snapshots[(shard_id, replica_id)].metrics(
                [] if n else served, query_set_name=query_set_name,
                queries=len(queries), keep_results=False,
            )
            for n, replica_id in enumerate(groups[shard_id])
        ]
        per_shard.append(_group_metrics(
            parts, served, query_set_name, len(queries), keep_results,
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
        results=results if keep_results else [],
        # Pruning counters live on the per-shard engine results (the
        # merged coordinator results don't carry them), so the summed
        # view comes from the per-shard metrics.
        **_fold(per_shard, results),
        term_cache_hits=term_stats.hits,
        term_cache_misses=term_stats.misses,
        term_cache_evictions=term_stats.evictions,
        term_cache_bytes=term_stats.bytes,
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
