"""Two-phase term-at-a-time evaluation on one shard: the wave bookkeeping.

Sharding breaks the inference network's silent assumption that a term's
decoded record *is* its collection-wide evidence: on a shard the
document frequencies a leaf derives are local, and a local df changes
the idf weight of *every* belief — rankings would silently drift from
the single-disk engine's.  The fix is the classic global-statistics
exchange, and the protocol for it lives in the network itself
(:class:`~repro.inquery.network.InferenceNetwork`: ``collect`` does
every leaf's storage work and reports local dfs, ``evaluate(tree,
slots, dfs)`` scores that evidence with the coordinator's sums).  The
evaluator is the unsharded one — :class:`~repro.inquery.RetrievalEngine`
supplies parse charge, reservation scan, provider, network (array
kernels, or the reference code under the kill switch) and ranking.

What is left here is what only a shard has: a *wave* of queries whose
two phases are separated by the coordinator's barrier, so per-query
state must wait between them, reservations span the wave, and each
query's share of the shared barrier is measured on the shard's clock.
"""

from typing import List, Tuple

from ..core.prepared import IRSystem
from ..errors import ReproError
from ..inquery import QueryResult, RetrievalEngine
from ..inquery.engine import DEFAULT_TOP_K


class ShardTaatRunner:
    """Drives the two phases of a wave of queries on one shard's machine.

    The scheduler calls :meth:`collect_many` on every shard, sums the
    local df vectors, then calls :meth:`score_many` everywhere with the
    sums (a single query is a wave of one).  Reservations are taken
    before phase 1 and released after phase 2, so the paper's reserve
    optimization spans the whole query exactly as it does on the
    unsharded engine.  Whatever either phase raises, the runner is left
    with nothing pending and nothing reserved.
    """

    def __init__(self, system: IRSystem, top_k: int = DEFAULT_TOP_K):
        self.system = system
        #: The shard's evaluator; the scheduler attaches the replica's
        #: term cache to it (``engine.term_cache``).
        self.engine = RetrievalEngine(
            system.index, system.clock, top_k=top_k,
            use_reservation=system.config.use_reservation,
        )
        #: Collected queries awaiting their global dfs:
        #: (text, tree, provider, network, leaf slots).
        self._pending: List[tuple] = []

    @property
    def pending_failures(self) -> int:
        """Storage failures seen by the pending collect phase(s).

        The failover scheduler probes this after phase 1: a non-zero
        count means this replica's collect already lost data (the score
        phase would produce a degraded result), so the work should be
        retried on another replica *before* the df exchange — a degraded
        local df vector would poison the global sums.
        """
        return sum(
            provider.failures
            for _text, _tree, provider, _network, _slots in self._pending
        )

    def abandon(self) -> None:
        """Drop pending collect state (failover gave up on this replica).

        Releases any reservations phase 1 pinned so the machine is
        clean if it ever comes back.
        """
        self._pending = []
        self.system.index.store.release_reservations()

    def collect_many(self, texts: List[str]) -> Tuple[List[List[int]], List]:
        """Phase 1 for a whole wave of queries, one barrier's worth.

        Returns the local df vector per query plus the per-query
        simulated clock delta, so the scheduler can attribute a latency
        to each request inside the shared barrier.  Reservations taken
        by each query stay pinned until :meth:`score_many` releases
        them all — the wave-spanning analogue of the paper's
        reserve-across-the-query optimization (the LRU buffers tolerate
        reservation overflow by design).
        """
        if self._pending:
            raise ReproError("previous query's score phase never ran")
        clock = self.system.clock
        dfs: List[List[int]] = []
        deltas = []
        try:
            for text in texts:
                start = clock.snapshot()
                tree, provider, network = self.engine.open_query(text)
                # Repeats of a term within the query are free; repeats
                # *across* queries are the term cache's, under the memo.
                provider.memo = {}
                slots = network.collect(tree)
                self._pending.append((text, tree, provider, network, slots))
                dfs.append([local_df for _evidence, local_df in slots])
                deltas.append(clock.since(start))
        except BaseException:
            self.abandon()
            raise
        return dfs, deltas

    def score_many(self, global_df_lists: List[List[int]]) -> Tuple[List[QueryResult], List]:
        """Phase 2 for the wave collected by :meth:`collect_many`.

        ``global_df_lists[q]`` is the coordinator-summed df vector of
        wave query ``q``, in collect order.  All reservations are
        released once, after the last query scores (or on the first
        failure).
        """
        pending, self._pending = self._pending, []
        clock = self.system.clock
        results: List[QueryResult] = []
        deltas = []
        try:
            if len(global_df_lists) != len(pending):
                raise ReproError(
                    f"wave shape mismatch: {len(pending)} pending queries, "
                    f"{len(global_df_lists)} df vectors"
                )
            for (text, tree, provider, network, slots), global_dfs in zip(
                pending, global_df_lists
            ):
                start = clock.snapshot()
                scores, _default = network.evaluate(tree, slots, global_dfs)
                results.append(self.engine.result(text, provider, scores))
                deltas.append(clock.since(start))
        finally:
            self.system.index.store.release_reservations()
        return results, deltas
