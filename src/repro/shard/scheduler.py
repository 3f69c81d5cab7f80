"""Fan-out scheduling of queries across shards and replicas.

Queries run against every live shard, one shard task after another on
the calling thread.  Shards are real Python objects on one machine and
every reported time is *simulated*: each shard's machines advance their
own clocks, and the N-machine wall clock is computed from those per-shard
deltas, never from real concurrency — so running the tasks in parallel
would buy nothing on either clock.  (Real parallelism, if ever wanted,
is processes over per-shard platters, not threads over shared objects.)

Determinism is by shard-order execution:

* every query phase is a **barrier** — the coordinator runs the phase's
  task on each live shard in shard-id order, each task touching only its
  own shard's simulated machines, and has every answer in hand before it
  computes global statistics or merges;
* ledgers and failover traces are folded in that same order, so the
  trace is a pure function of the inputs;
* the merge itself is pure and ordered (see :mod:`.merge`).

**Replica routing and failover.**  A replicated shard carries R mirror
machines with byte-identical platters (see :mod:`.system`).  Each
shard's task runs the phase on its lowest-id healthy replica.  If the
attempt comes back *degraded* (a ``BadBlockError`` ate evidence: a dead
disk, a torn record), the task marks that replica failed, abandons its
pending state, and retries the next healthy replica — all inside the
same barrier, charged sequentially to simulated time, so one replica
failure costs latency but never correctness: the served ranking is the
one a healthy single-disk system would produce.  Only when *every* replica of a shard has failed does the
task keep the last degraded answer — the PR 3/4 degraded path — so a
replicated system degrades exactly like an unreplicated one once
redundancy is exhausted, and never raises mid-query.

For TAAT the failover happens at the **collect** phase, before the df
exchange: a degraded collect would contribute zeroed local dfs and
silently poison every shard's idf weights.  The score phase then runs
pinned to whichever replica collected (phase 2 replays memoized
postings and touches no storage, so it cannot fail independently).

There is one round driver, :meth:`ShardScheduler.run_wave`; a batch
(:meth:`ShardScheduler.run_batch`) is a fold over waves of one query.

Two clocks come out of a round.  The **critical path** adds up, per
barrier, the slowest shard's time slice plus the coordinator's own
(serial) statistics-exchange and merge work — the simulated wall clock
of an actual N-machine deployment.  The **sum** over all shards is the
total machine time burned, the cost side of the scaling ledger; both are
reported by :mod:`repro.shard.metrics`.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.stats import max_over_mean
from ..errors import ConfigError, RebalanceInProgressError
from ..inquery import (
    DEFAULT_TOP_K,
    DocumentAtATimeEngine,
    QueryResult,
    parse_query,
    query_terms,
)
from ..simdisk.timing import TimeBreakdown
from .merge import ShardOutcome, ShardedQueryResult, merge_results
from .system import ShardedIRSystem
from .taat import ShardTaatRunner


@dataclass
class SchedulerStats:
    """What the scheduler did, for the run's metrics."""

    tasks: int = 0
    barriers: int = 0
    #: Rounds served (``run_wave`` calls; a batch is one per query).
    waves: int = 0
    #: Widest fan-out of any barrier: the number of live shards handed
    #: one task each (what an N-machine deployment would have in flight).
    max_queue_depth: int = 0
    #: Simulated busy time per shard over the batch, in milliseconds
    #: (all replicas of the shard combined, failed attempts included).
    busy_ms: Dict[int, float] = field(default_factory=dict)
    #: Simulated busy time per ``(shard, replica)`` — the replica-level
    #: refinement of ``busy_ms``.
    replica_busy_ms: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: Which replica served each round, one ``{shard: replica}`` map per
    #: round (a round is one query in ``run_batch`` or one whole wave).
    served_by: List[Dict[int, int]] = field(default_factory=list)
    #: Every failover taken, in round order: round, shard, the replica
    #: that failed, the replica the work moved to (``None`` when the
    #: failed one was the last and its degraded answer was served).
    failovers: List[Dict[str, object]] = field(default_factory=list)

    @property
    def shard_skew(self) -> float:
        """Max-over-mean shard busy time: 1.0 is a perfectly even load."""
        return max_over_mean(self.busy_ms.values())

    def absorb(self, later: "SchedulerStats") -> None:
        """Fold a later round's ledger into this one."""
        self.tasks += later.tasks
        self.barriers += later.barriers
        self.waves += later.waves
        self.max_queue_depth = max(self.max_queue_depth, later.max_queue_depth)
        for ledger, more in (
            (self.busy_ms, later.busy_ms),
            (self.replica_busy_ms, later.replica_busy_ms),
        ):
            for key, busy in more.items():
                ledger[key] = ledger.get(key, 0.0) + busy
        self.served_by.extend(later.served_by)
        self.failovers.extend(later.failovers)


@dataclass
class WaveOutcome:
    """A wave's (or a folded batch's) results, ledgers and critical
    path, plus a latency attribution per query.

    ``per_query_ms[q]`` is query *q*'s share of the wave's critical
    path: its slowest shard's collect slice + its coordinator exchange
    charge + its slowest shard's score slice + its merge charge.  The
    shares sum to (at most) the wave's critical path — barriers are
    shared, so a query never pays for another query's shard time, which
    is exactly the amortization the wave exists to buy.  (Failed
    failover attempts are charged to the wave's critical path and busy
    ledgers but not attributed to individual queries.)
    """

    results: List[ShardedQueryResult]
    per_query_ms: List[float]
    per_shard_results: Dict[int, List[QueryResult]]
    stats: SchedulerStats
    critical: TimeBreakdown


@dataclass
class _TaskResult:
    """One shard task's outcome after replica routing and failover."""

    payload: object
    replica_id: int
    delta: TimeBreakdown                       #: all attempts, summed
    attempts: List[Tuple[int, TimeBreakdown]]  #: (replica, delta) per attempt
    #: Failover events this task recorded, in attempt order; the
    #: barrier appends them to ``SchedulerStats.failovers``.
    events: List[Dict[str, object]] = field(default_factory=list)


class ShardScheduler:
    """Fans queries out to per-shard engines and merges the answers.

    ``engine`` selects per-shard evaluation: ``"taat"`` runs the
    two-phase term-at-a-time exchange (any query shape), ``"daat"`` runs
    the document-at-a-time engine (flat #sum/#wsum; global df comes from
    the shard dictionaries, so no exchange phase is needed).

    ``prune`` is forwarded to every per-shard document-at-a-time engine
    (``"off"`` / ``"auto"`` / ``"require"``).  Each shard prunes against
    its own top-k threshold; the coordinator's merge is unchanged, and
    because per-shard top-k is bit-identical to per-shard exhaustive
    evaluation, the merged ranking is too.

    ``term_caches`` is an optional
    :class:`~repro.serve.termcache.TermCacheFleet` over the same backend
    that attaches one term cache to each (shard, replica) engine.

    The scheduler captures the backend's topology ``epoch`` at
    construction; running it after a rebalance cutover raises
    :class:`~repro.errors.RebalanceInProgressError` — callers rebuild
    their scheduler from the post-cutover backend.
    """

    def __init__(
        self,
        sharded: ShardedIRSystem,
        top_k: int = DEFAULT_TOP_K,
        engine: str = "taat",
        prune: str = "off",
        term_caches=None,
    ):
        if engine not in ("taat", "daat"):
            raise ConfigError(f"unknown shard engine {engine!r}")
        if prune != "off" and engine != "daat":
            raise ConfigError(
                "dynamic pruning requires the document-at-a-time engine"
            )
        self.sharded = sharded
        self.top_k = top_k
        self.engine = engine
        self.prune = prune
        self.epoch = sharded.epoch
        self._rounds = 0
        # Engines are cached per (shard, replica) and validated against
        # the machine object they were built for, so a re-replicated
        # mirror transparently gets a fresh engine on first use.
        self._taat: Dict[Tuple[int, int], ShardTaatRunner] = {}
        self._daat: Dict[Tuple[int, int], DocumentAtATimeEngine] = {}
        # Term caches come from the fleet, which hands out one per
        # (shard, replica) machine: a cache survives failover back to a
        # healthy mirror but a re-replicated machine starts cold.
        self.term_caches = term_caches

    # -- per-replica engines ---------------------------------------------------

    def _term_cache(self, shard_id: int, replica_id: int):
        if self.term_caches is None:
            return None
        return self.term_caches.cache_for(shard_id, replica_id)

    def _taat_runner(self, shard_id: int, replica_id: int) -> ShardTaatRunner:
        machine = self.sharded.replica(shard_id, replica_id)
        key = (shard_id, replica_id)
        runner = self._taat.get(key)
        if runner is None or runner.system is not machine:
            runner = ShardTaatRunner(machine, top_k=self.top_k)
            self._taat[key] = runner
        runner.engine.term_cache = self._term_cache(shard_id, replica_id)
        return runner

    def _daat_engine(self, shard_id: int, replica_id: int) -> DocumentAtATimeEngine:
        machine = self.sharded.replica(shard_id, replica_id)
        key = (shard_id, replica_id)
        engine = self._daat.get(key)
        if engine is None or engine.index is not machine.index:
            engine = DocumentAtATimeEngine(
                machine.index,
                top_k=self.top_k,
                use_reservation=self.sharded.config.use_reservation,
                prune=self.prune,
            )
            self._daat[key] = engine
        engine.term_cache = self._term_cache(shard_id, replica_id)
        return engine

    # -- failover --------------------------------------------------------------

    def _failover_task(
        self,
        shard_id: int,
        round_no: int,
        phase: str,
        run: Callable[[int], object],
        clean: Callable[[int, object], bool],
        abandon: Optional[Callable[[int], None]] = None,
    ) -> _TaskResult:
        """Run one phase on a healthy replica, failing over on degradation.

        ``run(replica)`` performs the phase; ``clean(replica, payload)``
        judges whether the attempt lost evidence.  A dirty attempt marks
        its replica failed and retries the next healthy one *only while
        one exists* — the last replica standing is never marked down, so
        an exhausted group keeps serving its (degraded) best effort every
        round instead of going dark, exactly the unreplicated behavior.
        """
        sharded = self.sharded
        delta = TimeBreakdown()
        attempts: List[Tuple[int, TimeBreakdown]] = []
        events: List[Dict[str, object]] = []
        tried: set = set()
        while True:
            choice = next(
                r for r in sharded.healthy_replicas(shard_id) if r not in tried
            )
            if events and events[-1]["to_replica"] is None:
                events[-1]["to_replica"] = choice
            tried.add(choice)
            machine = sharded.replica(shard_id, choice)
            start = machine.clock.snapshot()
            payload = run(choice)
            d = machine.clock.since(start)
            delta += d
            attempts.append((choice, d))
            if clean(choice, payload):
                return _TaskResult(payload, choice, delta, attempts, events)
            remaining = [
                r for r in sharded.healthy_replicas(shard_id) if r not in tried
            ]
            if not remaining:
                # Redundancy exhausted: serve the degraded answer.
                events.append({
                    "round": round_no,
                    "shard": shard_id,
                    "failed_replica": choice,
                    "to_replica": None,
                    "phase": phase,
                })
                return _TaskResult(payload, choice, delta, attempts, events)
            sharded.mark_down(shard_id, replica_id=choice)
            if abandon is not None:
                abandon(choice)
            events.append({
                "round": round_no,
                "shard": shard_id,
                "failed_replica": choice,
                "to_replica": None,
                "phase": phase,
            })

    def _fixed_task(
        self, shard_id: int, replica_id: int, run: Callable[[int], object]
    ) -> _TaskResult:
        """Run one phase pinned to a specific replica (no failover)."""
        machine = self.sharded.replica(shard_id, replica_id)
        start = machine.clock.snapshot()
        payload = run(replica_id)
        d = machine.clock.since(start)
        return _TaskResult(payload, replica_id, d, [(replica_id, d)])

    # -- batch driving ---------------------------------------------------------

    def _check_epoch(self) -> None:
        if self.sharded.epoch != self.epoch:
            raise RebalanceInProgressError(
                reason="scheduler is stale after a topology cutover",
                expected_epoch=self.epoch,
                actual_epoch=self.sharded.epoch,
            )

    def run_batch(self, queries: List[str]) -> WaveOutcome:
        """Serve ``queries`` one round each: a fold over waves of one.

        Every query pays its own barriers (no wave amortization), with
        failover, the df exchange and every simulated
        charge exactly where :meth:`run_wave` has them.
        """
        total = self._empty_outcome()
        for text in queries:
            wave = self.run_wave([text])
            total.results.extend(wave.results)
            total.per_query_ms.extend(wave.per_query_ms)
            for shard_id, answers in wave.per_shard_results.items():
                total.per_shard_results[shard_id].extend(answers)
            total.stats.absorb(wave.stats)
            total.critical += wave.critical
        return total

    def _empty_outcome(self) -> WaveOutcome:
        per_shard = {i: [] for i in range(self.sharded.n_shards)}
        return WaveOutcome([], [], per_shard, SchedulerStats(), TimeBreakdown())

    def run_wave(self, texts: List[str]) -> WaveOutcome:
        """Serve a wave of queries with the per-phase barriers shared.

        A wave pays two barriers (collect, score) *total*, not per
        query: every shard collects the whole wave in one task, the
        coordinator runs the df exchange for all queries in one pass,
        and every shard scores the whole wave in a second task.
        Rankings are bit-identical to per-query serving — the phases do
        exactly the same storage and scoring work, just grouped — which
        the serving gate checks against the single-disk engine.
        """
        self._check_epoch()
        sharded = self.sharded
        outcome = self._empty_outcome()
        if not texts:
            return outcome
        stats, critical = outcome.stats, outcome.critical
        stats.waves = 1
        n = len(texts)
        per_query_ms = outcome.per_query_ms = [0.0] * n
        live = sharded.live_shards
        round_no = self._rounds
        self._rounds += 1
        cost = sharded.clock.cost
        if self.engine == "taat":
            collected, served = self._wave(
                live,
                lambda i: self._failover_task(
                    i, round_no, "collect",
                    run=lambda r, i=i: self._taat_runner(i, r).collect_many(texts),
                    clean=lambda r, _p, i=i: (
                        self._taat_runner(i, r).pending_failures == 0
                    ),
                    abandon=lambda r, i=i: self._taat_runner(i, r).abandon(),
                ),
                stats, critical,
            )
            # One coordinator pass sums every query's df vector; the
            # exchange costs one combine per (slot, shard).
            coord_start = sharded.clock.snapshot()
            global_df_lists: List[List[int]] = []
            for q in range(n):
                slots = len(collected[live[0]][0][q])
                global_df_lists.append([
                    sum(collected[i][0][q][slot] for i in live)
                    for slot in range(slots)
                ])
                exchange_ms = cost.cpu_ms_per_posting * slots * len(live)
                sharded.clock.charge_user(exchange_ms)
                per_query_ms[q] += exchange_ms
            critical += sharded.clock.since(coord_start)
            # Score runs pinned to whichever replica collected: its
            # memo provider holds the postings, and phase 2 touches
            # no storage, so it cannot fail independently.
            scored, _ = self._wave(
                live,
                lambda i: self._fixed_task(
                    i, served[i],
                    run=lambda r, i=i: self._taat_runner(i, r).score_many(
                        global_df_lists
                    ),
                ),
                stats, critical,
            )
            answers = [{i: scored[i][0][q] for i in live} for q in range(n)]
            for q in range(n):
                per_query_ms[q] += max(collected[i][1][q].wall_ms for i in live)
                per_query_ms[q] += max(scored[i][1][q].wall_ms for i in live)
        else:
            ran, served = self._wave(
                live,
                lambda i: self._failover_task(
                    i, round_no, "daat",
                    run=lambda r, i=i: self._daat_many(i, r, texts),
                    clean=lambda r, payload: all(
                        not res.degraded for res in payload[0]
                    ),
                ),
                stats, critical,
            )
            answers = [{i: ran[i][0][q] for i in live} for q in range(n)]
            for q in range(n):
                per_query_ms[q] += max(ran[i][1][q].wall_ms for i in live)
        stats.served_by.append(dict(sorted(served.items())))
        coord_start = sharded.clock.snapshot()
        for q, text in enumerate(texts):
            outcomes: List[ShardOutcome] = []
            for shard_id in range(sharded.n_shards):
                if shard_id in answers[q]:
                    outcomes.append(ShardOutcome(
                        shard_id, answers[q][shard_id],
                        replica_id=served[shard_id],
                    ))
                    outcome.per_shard_results[shard_id].append(
                        answers[q][shard_id]
                    )
                else:
                    outcomes.append(ShardOutcome(
                        shard_id,
                        attempted_down=self._down_attempted(shard_id, text),
                    ))
            merge_ms = cost.cpu_ms_per_posting * sum(
                len(o.result.ranking) for o in outcomes if o.result
            )
            sharded.clock.charge_user(merge_ms)
            per_query_ms[q] += merge_ms
            outcome.results.append(
                merge_results(text, outcomes, top_k=self.top_k)
            )
        critical += sharded.clock.since(coord_start)
        return outcome

    def _daat_many(self, shard_id: int, replica_id: int, texts: List[str]):
        """One replica's whole-wave DAAT task, with per-query deltas."""
        engine = self._daat_engine(shard_id, replica_id)
        clock = self.sharded.replica(shard_id, replica_id).clock
        results, deltas = [], []
        for text in texts:
            start = clock.snapshot()
            results.append(engine.run_query(text))
            deltas.append(clock.since(start))
        return results, deltas

    def _wave(
        self,
        shard_ids: List[int],
        task: Callable[[int], _TaskResult],
        stats: SchedulerStats,
        critical: TimeBreakdown,
    ):
        """One barrier: run ``task`` on every listed shard, in shard order.

        Returns the payload map and the replica that produced each
        shard's payload.  Busy ledgers charge every attempt (failed
        failover probes included); the critical path takes the slowest
        shard's *total* task delta, so failover latency is visible on
        the simulated wall clock.
        """
        stats.tasks += len(shard_ids)
        stats.max_queue_depth = max(stats.max_queue_depth, len(shard_ids))
        answers: Dict[int, object] = {}
        served: Dict[int, int] = {}
        deltas: Dict[int, TimeBreakdown] = {}
        for shard_id in shard_ids:
            outcome = task(shard_id)
            answers[shard_id] = outcome.payload
            served[shard_id] = outcome.replica_id
            deltas[shard_id] = outcome.delta
            stats.busy_ms[shard_id] = (
                stats.busy_ms.get(shard_id, 0.0) + outcome.delta.wall_ms
            )
            for replica_id, attempt in outcome.attempts:
                key = (shard_id, replica_id)
                stats.replica_busy_ms[key] = (
                    stats.replica_busy_ms.get(key, 0.0) + attempt.wall_ms
                )
            stats.failovers.extend(outcome.events)
        stats.barriers += 1
        slowest = max(shard_ids, key=lambda i: (deltas[i].wall_ms, i))
        critical += deltas[slowest]
        return answers, served

    def _down_attempted(self, shard_id: int, text: str) -> int:
        """Stored terms a down shard would have been asked to read.

        The shard's dictionary is coordinator-resident metadata, so the
        accounting works even when the shard's disk is unreachable.
        """
        index = self.sharded.shards[shard_id].index
        count = 0
        for term in set(query_terms(parse_query(text))):
            entry = index.term_entry(term)
            if entry is not None and entry.df and entry.storage_key:
                count += 1
        return count
