"""The serving layer: a concurrent batch query service with a result cache.

The paper's caching argument is made at the *record* level: query
streams repeat terms, so keeping decoded inverted-list records resident
pays (Figure 2, the ``mneme-cache`` configuration).  Real traffic
repeats at the *query* level too — this package lifts the same insight
one layer up.  :class:`~repro.serve.service.QueryService` fronts a
single-disk engine or a :class:`~repro.shard.system.ShardedIRSystem`
with:

* an admission queue and simulated worker pool that groups requests
  into **waves**, so the shard scheduler's per-phase barriers and the
  term-at-a-time df exchange are amortized across a batch
  (:meth:`~repro.shard.scheduler.ShardScheduler.run_wave`);
* a **normalized-query result cache**
  (:class:`~repro.serve.cache.ResultCache`): a size-bounded LRU keyed
  by the canonical query tree (parse → stop → stem → render), with an
  invalidation epoch bumped on rebuild/compaction.  Hits are
  bit-identical to cold evaluation; degraded results
  (``completeness < 1``) are never admitted;
* a **term cache** (:class:`~repro.serve.termcache.TermCache`),
  the middle tier between the block LRU buffers and the result cache: a
  byte-budgeted per-replica cache of fetched inverted-list records that
  answers the hot-term repeats the paper's record-caching experiment
  measured, eliding the SimDisk reads and the decode charge (each
  engine's decode memo absorbs the real decode) while keeping rankings
  bit-identical (``term_cache_bytes`` on the service or the benches;
  off by default).  A :class:`~repro.serve.termcache.TermCacheFleet`
  owns every cache of one backend, one per (shard, replica) machine.

Overload is a first-class state rather than an accident: a bounded
admission queue (``queue_limit``), per-request deadlines expired at
wave formation, and two priority classes (``interactive`` beats
``batch``) make shedding deterministic and accounted — see
:mod:`repro.serve.service` for the model and
:class:`~repro.serve.metrics.ServiceMetrics` for the per-class ledger.

Traffic comes from :mod:`repro.synth.traffic`; the regression gates are
:mod:`repro.bench.serve` (light load) and :mod:`repro.bench.saturate`
(past capacity).
"""

from .cache import CacheStats, ResultCache, clone_result
from .metrics import ClassMetrics, ServiceMetrics
from .service import (
    CACHE_PROBE_MS,
    QueryService,
    ServedRequest,
    ServiceReport,
    ServiceStats,
    ShedRequest,
)
from .termcache import TERM_PROBE_MS, TermCache, TermCacheFleet, TermCacheStats

__all__ = [
    "CACHE_PROBE_MS",
    "CacheStats",
    "ClassMetrics",
    "QueryService",
    "ResultCache",
    "ServedRequest",
    "ServiceMetrics",
    "ServiceReport",
    "ServiceStats",
    "ShedRequest",
    "TERM_PROBE_MS",
    "TermCache",
    "TermCacheFleet",
    "TermCacheStats",
    "clone_result",
]
