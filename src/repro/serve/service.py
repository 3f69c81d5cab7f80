"""The concurrent batch query service.

:class:`QueryService` is the front door of the serving stack: requests
arrive with timestamps (from :mod:`repro.synth.traffic` or callers),
queue for admission, and are served in **waves** by a pool of simulated
workers with a cross-query result cache in front of the backend.

Time model
----------
Everything is measured on the repo's *simulated* clocks, like every
other benchmark here (the service and the shard scheduler beneath it
run on one thread; real-thread timing would measure the interpreter,
not the modelled system).  A request's life:

1. It waits in the admission queue until the service is free — the
   service forms a wave of up to ``max_batch`` requests that have
   arrived by ``now``, ordered by the stable key
   ``(priority, arrival, seq)`` (interactive beats batch; ties break
   on arrival time, then stream position), so the schedule is a pure
   function of the request trace.
2. Each wave query is normalized to its canonical key
   (:func:`~repro.inquery.normalize.canonical_query_key`; parse charge
   ``cpu_ms_per_query_node`` × nodes, plus :data:`CACHE_PROBE_MS` for
   the probe) and looked up.  Hits complete immediately.  Distinct
   missing keys are evaluated once per wave — a duplicate inside the
   wave shares the evaluation ("shared").
3. Misses are assigned to ``workers`` simulated workers
   longest-processing-time first (deterministic ties by wave order):
   each evaluation's cost is its measured simulated duration — the
   engine's clock delta on a single-disk backend, the per-query
   critical-path share from
   :meth:`~repro.shard.scheduler.ShardScheduler.run_wave` on a sharded
   one (so a sharded wave pays its two barriers once, not per query).
4. The wave ends when its slowest worker finishes; the next wave is
   admitted then (a barrier, matching the scheduler's semantics).

Overload control
----------------
Under sustained open-loop load above capacity an unbounded FIFO queue
"serves" every request with unbounded latency; overload is instead a
first-class, accounted state:

* **Bounded admission** (``queue_limit``): a request that arrives
  while ``queue_limit`` requests are already waiting is rejected at
  its arrival time — a :class:`~repro.errors.RequestSheddedError`
  verdict (reason ``"queue-full"``) recorded in the report's shed
  ledger.  ``queue_limit=0`` keeps the historical unbounded queue.
* **Deadline expiry**: requests may carry an absolute
  ``deadline_ms``; at every wave formation, waiting requests whose
  deadline has passed are expired with a
  :class:`~repro.errors.DeadlineExceededError` verdict instead of
  being served uselessly late.  Expiry is checked at *dequeue* time
  (lazy, like a real server popping its run queue) — an admitted
  request therefore always starts by its deadline, which is what
  bounds admitted queueing delay.
* **Priority classes**: wave formation orders by
  ``(priority rank, arrival, seq)`` — ``interactive`` ahead of
  ``batch`` — so under saturation batch work yields capacity first.

Shed requests never reach normalization, evaluation, or the result
cache — they cannot populate or touch cached state — and they are
never silently dropped: every one appears in
:attr:`ServiceReport.shed` and the per-class
:class:`~repro.serve.metrics.ServiceMetrics`.

Correctness
-----------
Every served result — hit, miss, or shared — is bit-identical to a
cold evaluation of its own query text; the gates in
:mod:`repro.bench.serve` and :mod:`repro.bench.saturate` verify this
against a fresh single-disk engine for every admitted request of every
traffic run.  Degraded results are served (never raised) but never
cached, and :meth:`QueryService.invalidate_cache` must be called when
the index mutates (the incremental-update paths are the canonical
callers).
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.metrics import cold_start
from ..core.prepared import IRSystem
from ..core.stats import latency_summary, max_over_mean
from ..errors import (
    ConfigError,
    DeadlineExceededError,
    RequestSheddedError,
    ServiceUnavailableError,
    ShardUnavailableError,
)
from ..inquery.daat import DocumentAtATimeEngine
from ..inquery.engine import DEFAULT_TOP_K, QueryResult, RetrievalEngine
from ..inquery.normalize import normalize_tree, render_canonical
from ..inquery.query import count_nodes, parse_query
from ..shard.system import ShardedIRSystem
from ..synth.traffic import PRIORITY_RANK, ClosedLoopTraffic, TimedRequest
from .cache import CacheStats, ResultCache, clone_result
from .termcache import TermCache, TermCacheStats, merge_stats

#: Simulated cost of one cache probe (hash the canonical key, compare).
CACHE_PROBE_MS = 0.05


@dataclass
class ServedRequest:
    """One request's audited life through the service."""

    text: str
    arrival_ms: float
    start_ms: float        #: when its wave was admitted
    completion_ms: float
    outcome: str           #: "hit" | "miss" | "shared"
    result: QueryResult
    priority: str = "interactive"
    deadline_ms: Optional[float] = None

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.arrival_ms


@dataclass
class ShedRequest:
    """One request refused by admission control — accounted, not served.

    ``reason`` is ``"queue-full"`` (bounded queue at capacity when the
    request arrived) or ``"deadline"`` (expired at wave formation);
    ``error`` names the matching exception class, the taxonomy callers
    of :meth:`as_error` receive.
    """

    text: str
    priority: str
    arrival_ms: float
    shed_ms: float        #: service time at which the verdict was pronounced
    reason: str           #: "queue-full" | "deadline"
    deadline_ms: Optional[float] = None

    @property
    def error(self) -> str:
        return (
            "DeadlineExceededError" if self.reason == "deadline"
            else "RequestSheddedError"
        )

    def as_error(self) -> RequestSheddedError:
        """The verdict as its exception (what :meth:`serve_one` raises)."""
        if self.reason == "deadline":
            return DeadlineExceededError(
                query=self.text, priority=self.priority,
                deadline_ms=self.deadline_ms or 0.0, now_ms=self.shed_ms,
            )
        return RequestSheddedError(
            reason=self.reason, query=self.text, priority=self.priority
        )


@dataclass
class ServiceStats:
    """What the service did, across every request it ever processed."""

    requests: int = 0
    waves: int = 0
    evaluated: int = 0        #: backend evaluations actually run
    cache_hits: int = 0
    shared_in_wave: int = 0   #: duplicates that rode another's evaluation
    degraded_served: int = 0
    busy_ms: float = 0.0      #: summed evaluation cost (machine time)
    barriers: int = 0         #: shard-scheduler barriers paid
    admitted: int = 0         #: requests that made it into a wave
    shed_queue_full: int = 0  #: rejected at arrival, bounded queue full
    shed_deadline: int = 0    #: expired at wave formation
    failovers: int = 0        #: replica failovers absorbed while serving
    rebalances: int = 0       #: live topology cutovers (shard splits)
    ingests: int = 0          #: mutation batches applied and published
    compactions: int = 0      #: tombstone fold-out + store compaction passes
    #: Simulated busy milliseconds per shard, summed over every wave
    #: (sharded backends only) — the scheduler's ledger surfaced here.
    shard_busy_ms: Dict[int, float] = field(default_factory=dict)
    #: Same ledger keyed by ``(shard, replica)`` — failed attempts stay
    #: on the replica that burned them (replicated backends only).
    replica_busy_ms: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @property
    def shard_skew(self) -> float:
        """Max-over-mean shard busy time: 1.0 is a perfectly even load."""
        return max_over_mean(self.shard_busy_ms.values())


@dataclass
class ServiceReport:
    """One traffic run's outcome, ready for latency shaping."""

    name: str
    served: List[ServedRequest]
    workers: int
    max_batch: int
    #: This run's own result-cache counters (``None`` with caching off).
    cache_stats: Optional[CacheStats] = None
    waves: int = 0
    shed: List[ShedRequest] = field(default_factory=list)
    queue_limit: int = 0

    def latencies_ms(self) -> List[float]:
        return [row.latency_ms for row in self.served]

    @property
    def offered(self) -> int:
        """Everything the trace presented: served plus shed."""
        return len(self.served) + len(self.shed)

    @property
    def shed_fraction(self) -> float:
        offered = self.offered
        return len(self.shed) / offered if offered else 0.0

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion on the service clock."""
        if not self.served:
            return 0.0
        start = min(row.arrival_ms for row in self.served)
        end = max(row.completion_ms for row in self.served)
        return end - start

    @property
    def throughput_qps(self) -> float:
        span = self.makespan_ms
        return len(self.served) / span * 1000.0 if span > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        if not self.served:
            return 0.0
        hits = sum(1 for row in self.served if row.outcome == "hit")
        return hits / len(self.served)

    def summary(self) -> dict:
        digest = latency_summary(self.latencies_ms())
        digest = {k: round(v, 4) for k, v in digest.items()}
        digest.update(
            requests=len(self.served),
            waves=self.waves,
            throughput_qps=round(self.throughput_qps, 2),
            hit_rate=round(self.hit_rate, 4),
            outcomes={
                outcome: sum(1 for r in self.served if r.outcome == outcome)
                for outcome in ("hit", "miss", "shared")
            },
        )
        if self.shed:
            digest["shed"] = {
                "queue_full": sum(
                    1 for r in self.shed if r.reason == "queue-full"
                ),
                "deadline": sum(
                    1 for r in self.shed if r.reason == "deadline"
                ),
                "fraction": round(self.shed_fraction, 4),
            }
        return digest


#: A request waiting for a wave: ``(request, seq, user)`` — ``seq`` is the
#: stream position that breaks schedule ties, ``user`` the closed-loop
#: user to re-arm (``None`` on an open-loop stream).
_Waiting = Tuple[TimedRequest, int, Optional[int]]


def _priority_rank(priority: str) -> int:
    rank = PRIORITY_RANK.get(priority)
    if rank is None:
        raise ConfigError(
            f"unknown priority class {priority!r} "
            f"(expected one of {sorted(PRIORITY_RANK)})"
        )
    return rank


class QueryService:
    """Wave-batched, cached query serving over one backend.

    ``backend`` is a single-disk :class:`~repro.core.prepared.IRSystem`
    or a :class:`~repro.shard.system.ShardedIRSystem`; ``engine``
    selects term-at-a-time (any query shape) or document-at-a-time
    (flat ``#sum``/``#wsum``).  ``workers`` is the simulated
    query-evaluation parallelism (independent of the shard fan-out
    inside one evaluation); ``max_batch`` caps a wave.  Pass
    ``use_cache=False`` for an honest no-cache baseline (also disables
    in-wave sharing), or supply a prebuilt ``cache`` to share one
    across services.

    ``queue_limit`` bounds the admission queue (0 = unbounded, the
    historical behavior); see the module docstring for the shedding
    and priority semantics.

    ``prune`` (document-at-a-time only) turns on dynamic top-k pruning
    in the backend engines.  Pruned results are bit-identical to
    exhaustive ones, so the cache key deliberately does *not*
    discriminate on it — a pruned service can share a cache with an
    exhaustive one.
    """

    def __init__(
        self,
        backend: Union[IRSystem, ShardedIRSystem],
        engine: str = "taat",
        top_k: int = DEFAULT_TOP_K,
        workers: int = 1,
        max_batch: int = 8,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        cache_size: int = 512,
        cold: bool = True,
        prune: str = "off",
        queue_limit: int = 0,
        term_cache_bytes: int = 0,
    ):
        if engine not in ("taat", "daat"):
            raise ConfigError(f"unknown service engine {engine!r}")
        if prune != "off" and engine != "daat":
            raise ConfigError(
                "dynamic pruning requires the document-at-a-time engine"
            )
        if workers < 1:
            raise ConfigError("service needs at least one worker")
        if max_batch < 1:
            raise ConfigError("max_batch must be at least 1")
        if queue_limit < 0:
            raise ConfigError("queue_limit must be non-negative (0 = unbounded)")
        if term_cache_bytes < 0:
            raise ConfigError("term_cache_bytes must be non-negative (0 = off)")
        self.backend = backend
        self.engine = engine
        self.top_k = top_k
        self.prune = prune
        self.workers = workers
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.sharded = isinstance(backend, ShardedIRSystem)
        if cold:
            # Serve from the paper's cold state: caches purged, clocks
            # zeroed — otherwise build-time buffer residency would leak
            # into the first requests' latencies (and shield a faulted
            # disk from ever being read).
            if self.sharded:
                # Every replica, not just primaries: a failover must not
                # land on a machine still warm from the build.
                for group in backend.replica_groups:
                    for machine in group:
                        cold_start(machine)
                backend.clock.reset()
            else:
                cold_start(backend)
        self.term_cache_bytes = term_cache_bytes
        #: Counters of caches retired by rebalance (their replacements
        #: start cold, but lifetime stats must not go backwards).
        self._retired_term_stats = TermCacheStats()
        if self.sharded:
            self._scheduler = backend.scheduler(
                top_k=top_k, engine=engine, prune=prune,
                term_cache_bytes=term_cache_bytes,
            )
            index = backend.shards[0].index
        elif engine == "daat":
            self._engine = DocumentAtATimeEngine(
                backend.index,
                top_k=top_k,
                use_reservation=backend.config.use_reservation,
                prune=prune,
            )
            index = backend.index
        else:
            self._engine = RetrievalEngine(
                backend.index,
                top_k=top_k,
                use_reservation=backend.config.use_reservation,
            )
            index = backend.index
        if not self.sharded and term_cache_bytes > 0:
            self._engine.term_cache = TermCache(term_cache_bytes, shard=0)
        # Normalization must match the backend's: same stop list, same
        # stemmer (every shard shares the global preparation, so shard
        # 0's index speaks for all of them).
        self._stopwords = index.stopwords
        self._stem_fn = index.stem_fn
        self._cost = backend.clock.cost
        self.cache = (
            cache
            if cache is not None
            else (ResultCache(cache_size) if use_cache else None)
        )
        self.stats = ServiceStats()
        self._open = True

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop admitting requests; subsequent serving raises."""
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise ServiceUnavailableError("service has been shut down")

    def invalidate_cache(self, reason: str = "") -> int:
        """The index changed: bump the cache epoch, dropping all entries."""
        if self.cache is None:
            return 0
        return self.cache.invalidate(reason)

    # -- the term cache fleet --------------------------------------

    def term_caches(self) -> List[TermCache]:
        """Every live per-replica term cache (empty when off)."""
        if self.term_cache_bytes <= 0:
            return []
        if self.sharded:
            return [cache for _s, _r, cache in self._scheduler.term_caches()]
        cache = getattr(self._engine, "term_cache", None)
        return [cache] if cache is not None else []

    def term_cache_stats(self) -> TermCacheStats:
        """Lifetime counters: live caches plus rebalance-retired ones.

        ``bytes`` is what the live caches hold now; ``peak_bytes`` is the
        highest fleet-wide residency any topology reached.
        """
        live = merge_stats(self.term_caches())
        retired = self._retired_term_stats
        lifetime = retired + live
        lifetime.bytes = live.bytes
        lifetime.peak_bytes = max(retired.peak_bytes, live.peak_bytes)
        return lifetime

    def rebalance(self, factor: int = 2):
        """Split every shard into ``factor`` children, live.

        Called between waves (the natural cutover boundary: nothing is
        in flight).  The streaming copy reads from surviving replicas on
        the simulated clock, the child platters are byte-identical to a
        stop-the-world rebuild at the new shard count, and the result
        cache epoch is bumped so no pre-split entry can ever be served
        post-split — even though results are identical by construction,
        a cached row must never outlive the topology that produced it.
        Returns the :class:`~repro.shard.rebalance.SplitReport`.
        """
        self._check_open()
        if not self.sharded:
            raise ConfigError("rebalance requires a sharded backend")
        from ..shard.rebalance import split_shards

        # Retire the term caches with the topology that filled them:
        # post-split records live on different machines with different
        # storage keys, so the replacements start cold by design.
        self._retired_term_stats = self.term_cache_stats()
        report = split_shards(self.backend, factor=factor)
        # The old scheduler is epoch-stale by design; build a fresh one
        # against the new topology.
        self._scheduler = self.backend.scheduler(
            top_k=self.top_k, engine=self.engine, prune=self.prune,
            term_cache_bytes=self.term_cache_bytes,
        )
        self.invalidate_cache("rebalance-cutover")
        self.stats.rebalances += 1
        return report

    @property
    def ingest_pipeline(self):
        """The lazily-built :class:`~repro.live.IngestPipeline` over this
        service's backend.  One pipeline per service: the epoch manager
        must see every mutation batch, or its per-epoch live-document
        snapshots stop matching the index."""
        pipeline = getattr(self, "_ingest_pipeline", None)
        if pipeline is None:
            from ..live import IngestPipeline

            pipeline = IngestPipeline(self.backend)
            self._ingest_pipeline = pipeline
        return pipeline

    def ingest(self, adds: Sequence = (), deletes: Sequence = ()):
        """Apply one mutation batch between waves and publish its epoch.

        Adds and deletes route through the incremental-update paths
        (sharded backends route each mutation to the owning shard's
        replica group), the batch publishes a new index epoch sealed by
        a WAL epoch-commit marker, and the result cache epoch is bumped
        exactly once — a request admitted before this call saw the old
        corpus exactly, one admitted after sees the new corpus exactly.
        Returns the :class:`~repro.live.IngestReport`.
        """
        self._check_open()
        report = self.ingest_pipeline.apply(adds=adds, deletes=deletes)
        self.invalidate_cache(f"ingest-epoch-{report.epoch}")
        # Term caches are surgical where the result cache is wholesale:
        # only the owning shard's mutated terms drop (deletes are
        # tombstones — the post-fetch filter handles them, nothing to
        # invalidate).
        for cache in self.term_caches():
            cache.invalidate_terms(report.mutated_terms.get(cache.shard, ()))
        self.stats.ingests += 1
        return report

    def compact(self):
        """Fold tombstones out and compact every machine's Mneme file.

        Runs concurrently with query traffic on the simulated clocks.
        Rankings are invariant under compaction — the decode-time
        tombstone filter already hid the dead documents — so the cache
        is deliberately *not* invalidated: every cached row is still
        bit-identical to a cold evaluation.  Returns the
        :class:`~repro.live.CompactionSummary`.
        """
        self._check_open()
        # Snapshot the tombstones compaction is about to fold: cached
        # payloads decoded before the fold still contain those documents
        # and must keep filtering them after the index's own set empties.
        folded: Dict[int, set] = {}
        if self.term_caches():
            if self.sharded:
                for shard_id, group in enumerate(self.backend.replica_groups):
                    folded[shard_id] = set(group[0].index.tombstones)
            else:
                folded[0] = set(self.backend.index.tombstones)
        summary = self.ingest_pipeline.compact()
        for cache in self.term_caches():
            dead = folded.get(cache.shard)
            if dead:
                cache.fold_tombstones(dead)
        self.stats.compactions += 1
        return summary

    # -- normalization -----------------------------------------------------

    def key_of(self, text: str) -> str:
        """The cache key: engine/top-k discriminator + canonical tree."""
        key, _overhead = self._normalize(text)
        return key

    def _normalize(self, text: str) -> Tuple[str, float]:
        tree = parse_query(text)
        overhead = (
            self._cost.cpu_ms_per_query_node * count_nodes(tree) + CACHE_PROBE_MS
        )
        canonical = render_canonical(
            normalize_tree(tree, self._stopwords, self._stem_fn)
        )
        return f"{self.engine}|k{self.top_k}|{canonical}", overhead

    # -- shedding ----------------------------------------------------------

    def _shed(self, request: TimedRequest, shed_ms: float, reason: str,
              ledger: List[ShedRequest]) -> None:
        """Pronounce one shed verdict: counted, ledgered, never silent."""
        if reason == "deadline":
            self.stats.shed_deadline += 1
        else:
            self.stats.shed_queue_full += 1
        ledger.append(ShedRequest(
            text=request.text,
            priority=request.priority,
            arrival_ms=request.arrival_ms,
            shed_ms=shed_ms,
            reason=reason,
            deadline_ms=request.deadline_ms,
        ))

    # -- serving -----------------------------------------------------------

    def serve_one(
        self,
        text: str,
        priority: str = "interactive",
        deadline_ms: Optional[float] = None,
    ) -> QueryResult:
        """Serve one query right now (a wave of one).

        ``deadline_ms`` is absolute on the service clock (the request
        arrives at t=0); a deadline already in the past raises
        :class:`~repro.errors.DeadlineExceededError` — the verdict a
        stream run records in its shed ledger instead.
        """
        self._check_open()
        _priority_rank(priority)
        if deadline_ms is not None and deadline_ms < 0.0:
            self.stats.shed_deadline += 1
            raise DeadlineExceededError(
                query=text, priority=priority,
                deadline_ms=deadline_ms, now_ms=0.0,
            )
        request = TimedRequest(
            text=text, arrival_ms=0.0, priority=priority, deadline_ms=deadline_ms
        )
        self.stats.admitted += 1
        rows, _wave_end = self._serve_wave([request], 0.0)
        return rows[0].result

    def process(
        self, requests: Sequence[TimedRequest], name: str = ""
    ) -> ServiceReport:
        """Serve an open-loop request stream to completion.

        The schedule — wave composition, shed set, every latency — is a
        pure function of the request trace and the service knobs: ties
        are broken by input position, expiry is checked on the
        simulated clock, and nothing samples randomness.
        """
        self._check_open()
        order = sorted(
            range(len(requests)), key=lambda i: (requests[i].arrival_ms, i)
        )
        for i in order:
            _priority_rank(requests[i].priority)
        report = self._report(name)
        #: Admitted, not yet in a wave: ``(request, seq, user)`` entries.
        waiting: List[_Waiting] = []
        now = 0.0
        cursor = 0
        while cursor < len(order) or waiting:
            if not waiting:
                now = max(now, requests[order[cursor]].arrival_ms)
            # Admission: arrivals up to `now`, each checked against the
            # bounded queue at its own arrival instant.
            while (
                cursor < len(order)
                and requests[order[cursor]].arrival_ms <= now
            ):
                i = order[cursor]
                cursor += 1
                if self.queue_limit and len(waiting) >= self.queue_limit:
                    self._shed(
                        requests[i], requests[i].arrival_ms, "queue-full",
                        report.shed,
                    )
                else:
                    waiting.append((requests[i], i, None))
            now, _released = self._next_wave(waiting, now, report)
        return self._close(report)

    def process_closed(self, traffic: ClosedLoopTraffic) -> ServiceReport:
        """Drive a closed-loop stream: completions pace the users.

        Deadlines and priorities apply exactly as in :meth:`process`; a
        user whose request expires re-thinks from the shed time (the
        client saw its deadline blow and re-issues later).  The queue
        bound is not applied — a closed loop's backlog is already
        bounded by ``concurrency``.
        """
        self._check_open()
        traffic.reset()
        ready: List[Tuple[float, int]] = [
            (traffic.first_arrival(user), user)
            for user in range(traffic.concurrency)
        ]
        heapq.heapify(ready)
        report = self._report(traffic.profile.name)
        waiting: List[_Waiting] = []
        now = 0.0
        while ready or waiting:
            if not waiting:
                now = max(now, ready[0][0])
            while ready and ready[0][0] <= now:
                arrival, user = heapq.heappop(ready)
                request = traffic.next_request(arrival)
                if request is None:
                    continue  # budget spent: retire this user
                waiting.append((request, request.seq, user))
            now, released = self._next_wave(waiting, now, report)
            for user, free_ms in released:
                heapq.heappush(ready, (free_ms + traffic.think(user), user))
        return self._close(report)

    def _report(self, name: str) -> ServiceReport:
        """An empty report for one traffic run, filled wave by wave; its
        ``cache_stats`` is the opening snapshot until :meth:`_close`."""
        return ServiceReport(
            name=name,
            served=[],
            workers=self.workers,
            max_batch=self.max_batch,
            cache_stats=None if self.cache is None else self.cache.stats.copy(),
            queue_limit=self.queue_limit,
        )

    def _close(self, report: ServiceReport) -> ServiceReport:
        """Turn the opening snapshot into the run's own cache delta."""
        if report.cache_stats is not None:
            report.cache_stats = self.cache.stats - report.cache_stats
        return report

    def _next_wave(
        self, waiting: List[_Waiting], now: float, report: ServiceReport
    ) -> Tuple[float, List[Tuple[Optional[int], float]]]:
        """One wave-formation step, shared by both traffic drivers.

        Lazily expires what is already past its deadline, takes the
        best ``(priority, arrival, seq)`` prefix of up to ``max_batch``
        and serves it; ``waiting`` keeps the rest.  Returns the service
        time after the wave and, for every request that left the queue,
        ``(user, ms at which it was shed or completed)`` — expired ones
        first, then the wave in schedule order.
        """
        released: List[Tuple[Optional[int], float]] = []
        live: List[_Waiting] = []
        for entry in waiting:
            request, _seq, user = entry
            if request.deadline_ms is not None and request.deadline_ms < now:
                self._shed(request, now, "deadline", report.shed)
                released.append((user, now))
            else:
                live.append(entry)
        live.sort(key=lambda entry: (
            _priority_rank(entry[0].priority), entry[0].arrival_ms, entry[1]
        ))
        wave = live[: self.max_batch]
        waiting[:] = live[self.max_batch:]
        if not wave:
            return now, released
        self.stats.admitted += len(wave)
        rows, wave_end = self._serve_wave([entry[0] for entry in wave], now)
        report.served.extend(rows)
        report.waves += 1
        released.extend(
            (entry[2], row.completion_ms) for entry, row in zip(wave, rows)
        )
        return max(now, wave_end), released

    # -- one wave ----------------------------------------------------------

    def _serve_wave(
        self, wave: List[TimedRequest], start_ms: float
    ) -> Tuple[List[ServedRequest], float]:
        self.stats.waves += 1
        self.stats.requests += len(wave)
        plans = [(request,) + self._normalize(request.text) for request in wave]
        rows: List[Optional[ServedRequest]] = [None] * len(wave)
        first_of_key: Dict[str, int] = {}
        owner_of: Dict[int, int] = {}   # wave index -> evaluation owner index
        miss_order: List[int] = []      # owner indexes, in wave order
        for idx, (request, key, overhead) in enumerate(plans):
            cached = (
                self.cache.get(key, query_text=request.text)
                if self.cache is not None
                else None
            )
            if cached is not None:
                self.stats.cache_hits += 1
                rows[idx] = ServedRequest(
                    text=request.text,
                    arrival_ms=request.arrival_ms,
                    start_ms=start_ms,
                    completion_ms=start_ms + overhead,
                    outcome="hit",
                    result=cached,
                    priority=request.priority,
                    deadline_ms=request.deadline_ms,
                )
            elif self.cache is not None and key in first_of_key:
                # In-wave duplicate: ride the first occurrence's
                # evaluation.  (Cache off: no sharing — every request
                # is its own evaluation, the honest baseline.)
                owner_of[idx] = first_of_key[key]
                self.stats.shared_in_wave += 1
            else:
                if self.cache is not None:
                    first_of_key[key] = idx
                owner_of[idx] = idx
                miss_order.append(idx)
        evaluated = self._evaluate([plans[idx][0].text for idx in miss_order])
        result_of: Dict[int, Tuple[QueryResult, float]] = dict(
            zip(miss_order, evaluated)
        )
        for idx, (result, _cost_ms) in result_of.items():
            if result.degraded or result.completeness < 1.0:
                self.stats.degraded_served += 1
            if self.cache is not None:
                self.cache.put(plans[idx][1], result)
        # Longest-processing-time assignment onto the simulated workers;
        # ties broken by wave order, so the schedule is deterministic.
        finish_of: Dict[int, float] = {}
        worker_free = [start_ms] * self.workers
        for position in sorted(
            range(len(miss_order)), key=lambda p: (-evaluated[p][1], p)
        ):
            worker = min(range(self.workers), key=lambda w: (worker_free[w], w))
            worker_free[worker] += evaluated[position][1]
            finish_of[miss_order[position]] = worker_free[worker]
        for idx, (request, _key, overhead) in enumerate(plans):
            if rows[idx] is not None:
                continue
            owner = owner_of[idx]
            result, _cost = result_of[owner]
            if idx == owner:
                outcome, served_result = "miss", result
            else:
                outcome = "shared"
                served_result = clone_result(result, query_text=request.text)
            rows[idx] = ServedRequest(
                text=request.text,
                arrival_ms=request.arrival_ms,
                start_ms=start_ms,
                completion_ms=finish_of[owner] + overhead,
                outcome=outcome,
                result=served_result,
                priority=request.priority,
                deadline_ms=request.deadline_ms,
            )
        wave_end = max(row.completion_ms for row in rows) if rows else start_ms
        return rows, wave_end  # type: ignore[return-value]

    def _evaluate(self, texts: List[str]) -> List[Tuple[QueryResult, float]]:
        """Run the backend; each result with its simulated cost in ms."""
        if not texts:
            return []
        self.stats.evaluated += len(texts)
        if self.sharded:
            try:
                outcome = self._scheduler.run_wave(texts)
            except ShardUnavailableError as error:
                raise ServiceUnavailableError(
                    f"no live shards behind the service ({error.reason or error})"
                ) from error
            self.stats.barriers += outcome.stats.barriers
            self.stats.busy_ms += sum(outcome.per_query_ms)
            self.stats.failovers += len(outcome.stats.failovers)
            for shard_id, busy in sorted(outcome.stats.busy_ms.items()):
                self.stats.shard_busy_ms[shard_id] = (
                    self.stats.shard_busy_ms.get(shard_id, 0.0) + busy
                )
            for pair, busy in sorted(outcome.stats.replica_busy_ms.items()):
                self.stats.replica_busy_ms[pair] = (
                    self.stats.replica_busy_ms.get(pair, 0.0) + busy
                )
            return list(zip(outcome.results, outcome.per_query_ms))
        clock = self.backend.clock
        out: List[Tuple[QueryResult, float]] = []
        for text in texts:
            start = clock.snapshot()
            result = self._engine.run_query(text)
            delta = clock.since(start)
            self.stats.busy_ms += delta.wall_ms
            out.append((result, delta.wall_ms))
        return out
