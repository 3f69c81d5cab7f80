"""Two-phase term-at-a-time evaluation on one shard.

Sharding breaks the inference network's silent assumption that a term's
decoded record *is* its collection-wide evidence: the reference
network's :meth:`~repro.inquery.network.InferenceNetwork._eval_term`
scores with ``df = len(postings)``, and the proximity/synonym operators
likewise derive the virtual term's document frequency from the matches
they just computed.  On a shard those counts are local, and a local df
changes the idf weight of *every* belief — rankings would silently drift
from the single-disk engine's.

The fix is the classic global-statistics exchange, run as two phases per
query:

1. **Collect** (:class:`_SlotCollector`): walk the query tree in
   pre-order and perform each leaf's storage work — fetch and decode
   term records, build proximity/synonym virtual postings — recording
   one :class:`_LeafSlot` per leaf with its *local* document frequency.
   No beliefs are computed.  The coordinator sums the slot vectors of
   every shard element-wise; because each document lives on exactly one
   shard, the sums are exactly the df values the unsharded network
   would have derived.
2. **Inject** (:class:`_InjectedNetwork`): evaluate the tree normally,
   except that each leaf's belief table is computed from phase 1's
   memoized postings and the coordinator's *global* df.  No storage is
   touched — the memo provider replays phase 1's data, which also
   guarantees both phases saw the same bytes even under an active fault
   plan.

Leaf slots are consumed in pre-order on both walks; the tree is parsed
from the same query text with the same parser on every shard, so the
slot sequences line up by construction.
"""

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.prepared import IRSystem
from ..errors import BadBlockError, ReproError
from ..inquery import InferenceNetwork, OpNode, QueryResult, TermNode, parse_query
from ..inquery.engine import DEFAULT_TOP_K, _IndexProvider
from ..inquery.network import DEFAULT_BELIEF
from ..inquery.postings import Posting
from ..inquery.query import QueryNode, count_nodes, query_terms


class _MemoProvider(_IndexProvider):
    """Per-query postings memo shared by the two phases.

    The first lookup of a term does the real storage access (with its
    decode and per-posting CPU charges, and its attempt/failure
    accounting); repeats — including every phase 2 lookup — return the
    remembered value free of charge.  Memoizing by term also pins the
    *data*: under a fault plan, phase 2 scores exactly the postings
    phase 1 fetched rather than re-rolling the fault dice.
    """

    def __init__(self, index, clock, reserve: bool):
        super().__init__(index, clock, reserve)
        self._memo: Dict[str, Optional[List[Posting]]] = {}

    def postings(self, term: str) -> Optional[List[Posting]]:
        if term in self._memo:
            return self._memo[term]
        result = super().postings(term)
        self._memo[term] = result
        return result


@dataclass
class _LeafSlot:
    """One leaf's phase 1 outcome: its postings and local df.

    A "leaf" is anything the network scores as a single term: a
    :class:`TermNode`, or a proximity/synonym operator whose virtual
    postings were materialized from its children.
    """

    postings: Optional[List[Posting]]
    local_df: int


class _SlotCollector(InferenceNetwork):
    """Phase 1: leaf storage work only, recording slots in pre-order."""

    def __init__(self, provider: _MemoProvider):
        super().__init__(provider)
        self.slots: List[_LeafSlot] = []

    def _push(self, postings: Optional[List[Posting]]) -> None:
        self.slots.append(
            _LeafSlot(postings=postings, local_df=len(postings) if postings else 0)
        )

    def collect(self, node: QueryNode) -> None:
        if isinstance(node, TermNode):
            self._push(self._provider.postings(node.term))
            return
        # Window derivations mirror the reference handlers exactly, so
        # the virtual postings (and their combine charges) are the ones
        # an unsharded evaluation of this shard's data would build.
        if node.op == "phrase":
            self._push(self._proximity_postings(node, ordered=True, window=1))
            return
        if node.op == "od":
            self._push(
                self._proximity_postings(node, ordered=True, window=max(node.window, 1))
            )
            return
        if node.op == "uw":
            self._push(
                self._proximity_postings(
                    node, ordered=False, window=max(node.window, len(node.children))
                )
            )
            return
        if node.op == "syn":
            self._push(self._synonym_postings(node))
            return
        for child in node.children:
            self.collect(child)


class _InjectedNetwork(InferenceNetwork):
    """Phase 2: the reference evaluation with global df at every leaf."""

    def __init__(
        self,
        provider: _MemoProvider,
        slots: List[_LeafSlot],
        global_dfs: List[int],
    ):
        super().__init__(provider)
        self._slots = slots
        self._global_dfs = global_dfs
        self._cursor = 0

    def _leaf_table(self):
        slot = self._slots[self._cursor]
        df = self._global_dfs[self._cursor]
        self._cursor += 1
        if not slot.postings or df < 1:
            # No local evidence: every local document keeps the default
            # belief, exactly as it would in the global belief table.
            return {}, DEFAULT_BELIEF
        return self._belief_from_postings(slot.postings, df=df)

    def _eval_term(self, term: str):
        return self._leaf_table()

    def _proximity(self, node: OpNode, ordered: bool, window: int):
        return self._leaf_table()

    def _eval_syn(self, node: OpNode):
        return self._leaf_table()


class ShardTaatRunner:
    """Drives the two phases of a wave of queries on one shard's machine.

    The scheduler calls :meth:`collect_many` on every shard, sums the
    local df vectors, then calls :meth:`score_many` everywhere with the
    sums (a single query is a wave of one).  Reservations are taken
    before phase 1 and released after phase 2, so the paper's reserve
    optimization spans the whole query exactly as it does on the
    unsharded engine.
    """

    def __init__(self, system: IRSystem, top_k: int = DEFAULT_TOP_K):
        self.system = system
        self.top_k = top_k
        #: Optional decoded-term cache, attached per replica by the
        #: scheduler (``None`` = the historical path, byte-for-byte).
        self.term_cache = None
        self._pending: List[
            Tuple[str, QueryNode, _MemoProvider, List[_LeafSlot]]
        ] = []

    def _collect_one(self, text: str) -> List[int]:
        """Phase 1: leaf storage work; returns the local df vector."""
        index = self.system.index
        clock = self.system.clock
        tree = parse_query(text)
        clock.charge_user(clock.cost.cpu_ms_per_query_node * count_nodes(tree))
        if self.system.config.use_reservation:
            # Best-effort, as on the unsharded engine: a storage failure
            # while probing residency pins nothing; the collect phase
            # below degrades the real read failures.
            for term in query_terms(tree):
                entry = index.term_entry(term)
                if entry is not None and entry.storage_key:
                    try:
                        index.store.reserve(entry.storage_key)
                    except BadBlockError:
                        break
        provider = _MemoProvider(index, clock, self.system.config.use_reservation)
        # The memo answers repeats within the query; the term cache sits
        # under it (via the inherited postings fetch) and answers
        # repeats *across* queries on this replica.
        provider.term_cache = self.term_cache
        collector = _SlotCollector(provider)
        collector.collect(tree)
        self._pending.append((text, tree, provider, collector.slots))
        return [slot.local_df for slot in collector.slots]

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
            provider.failures for _text, _tree, provider, _slots in self._pending
        )

    def abandon(self) -> None:
        """Drop pending collect state (failover gave up on this replica).

        Releases any reservations phase 1 pinned so the machine is
        clean if it ever comes back.
        """
        self._pending.clear()
        self.system.index.store.release_reservations()

    def _score_one(self, global_dfs: List[int]) -> QueryResult:
        """Phase 2: evaluate with global statistics and rank local docs."""
        text, tree, provider, slots = self._pending.pop(0)
        if len(global_dfs) != len(slots):
            raise ReproError(
                f"df exchange shape mismatch: {len(slots)} leaf slots, "
                f"{len(global_dfs)} global dfs"
            )
        clock = self.system.clock
        network = _InjectedNetwork(provider, slots, global_dfs)
        scores, _default = network.evaluate(tree)
        clock.charge_user(clock.cost.cpu_ms_per_posting * len(scores))
        ranking = heapq.nsmallest(
            self.top_k, scores.items(), key=lambda item: (-item[1], item[0])
        )
        return QueryResult(
            query=text,
            ranking=ranking,
            terms_looked_up=provider.lookups,
            degraded=provider.failures > 0,
            terms_attempted=provider.attempts,
            terms_failed=provider.failures,
        )

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
        for text in texts:
            start = clock.snapshot()
            dfs.append(self._collect_one(text))
            deltas.append(clock.since(start))
        return dfs, deltas

    def score_many(self, global_df_lists: List[List[int]]) -> Tuple[List[QueryResult], List]:
        """Phase 2 for the wave collected by :meth:`collect_many`.

        ``global_df_lists[q]`` is the coordinator-summed df vector of
        wave query ``q``, in collect order.  All reservations are
        released once, after the last query scores (or on the first
        failure).
        """
        if len(global_df_lists) != len(self._pending):
            raise ReproError(
                f"wave shape mismatch: {len(self._pending)} pending queries, "
                f"{len(global_df_lists)} df vectors"
            )
        clock = self.system.clock
        results: List[QueryResult] = []
        deltas = []
        try:
            for global_dfs in global_df_lists:
                start = clock.snapshot()
                results.append(self._score_one(global_dfs))
                deltas.append(clock.since(start))
        finally:
            self.system.index.store.release_reservations()
        return results, deltas
