"""Document-partitioned sharding of the inverted file.

The paper's system is one machine: one disk, one Mneme file, one set of
pools and buffers.  Its scaling story ("collections of a gigabyte or
more") points straight at partitioning: split the *documents* across N
such machines, replicate the pool/buffer layout on each, fan every query
out, and merge.  This package adds that layer without disturbing the
single-machine stack beneath it:

* :mod:`.partition` — deterministic hash/range document partitioners and
  the per-shard slicing of a prepared collection;
* :mod:`.system` — :func:`materialize_sharded` builds one simulated
  machine per shard; :class:`ShardedIRSystem` holds them plus the
  coordinator state;
* :mod:`.taat` / :mod:`.scheduler` — per-shard engines behind a
  shard-order scheduler with a global-statistics exchange, keeping
  sharded rankings bit-identical to the single-disk engine's;
* :mod:`.merge` — lossless top-k merging with degraded-mode accounting;
* :mod:`.metrics` — per-shard Table 3-6 breakdowns plus critical-path
  wall clock, queue depth, and load skew;
* :mod:`.rebalance` — deterministic online shard splitting (2 -> 4) with
  byte-identical child platters and an atomic epoch-bumping cutover.

Replication rides on the same layer: ``materialize_sharded(...,
replicas=R)`` builds R byte-identical mirrors per shard, the scheduler
routes each round to a healthy replica and fails over deterministically
when one degrades, and :meth:`ShardedIRSystem.rereplicate` copies a
survivor's platter onto a fresh machine on the simulated clock.
"""

from .merge import ShardOutcome, ShardedQueryResult, merge_results
from .metrics import ShardRunMetrics, measure_sharded_run
from .rebalance import SplitReport, split_shards
from .partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    ShardPrepared,
    make_partitioner,
    partition_prepared,
)
from .scheduler import SchedulerStats, ShardScheduler, WaveOutcome
from .system import ShardedIRSystem, materialize_sharded
from .taat import ShardTaatRunner

__all__ = [
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "SchedulerStats",
    "ShardOutcome",
    "ShardPrepared",
    "ShardRunMetrics",
    "ShardScheduler",
    "ShardTaatRunner",
    "ShardedIRSystem",
    "ShardedQueryResult",
    "SplitReport",
    "WaveOutcome",
    "materialize_sharded",
    "measure_sharded_run",
    "merge_results",
    "partition_prepared",
    "make_partitioner",
    "split_shards",
]
