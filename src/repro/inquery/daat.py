"""Document-at-a-time query evaluation.

Section 3.1 of the paper: term-at-a-time processing "requires large
amounts of memory for large collections, because several inverted list
records must be kept in memory simultaneously.  A 'document-at-a-time'
approach, which gathered all of the evidence for one document before
proceeding to the next, might scale better to large collections.
However, it would be cumbersome with the current custom B-tree package."

With linked records (:class:`~repro.inquery.invfile.LinkedMnemeInvertedFile`)
it is not cumbersome: each term contributes a
:class:`~repro.inquery.streams.PostingStream` that keeps one chunk
resident, the streams merge in document order, and every document's
belief is finished before the next document is touched.  The ranking is
bit-identical to the term-at-a-time engine's for the supported query
shapes (flat ``#sum`` / ``#wsum`` over terms — the bag-of-words form
document-at-a-time is classically defined for; structured operators stay
on the term-at-a-time engine).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import BadBlockError, PruningUnsupportedError, QueryError
from ..fastpath import codec as _codec
from ..fastpath import state as _fastpath
from ..fastpath.topk import rank
from ..simdisk import SimClock
from .engine import DEFAULT_TOP_K, QueryResult
from .indexer import CollectionIndex
from .network import DEFAULT_BELIEF, inquery_idf, left_sum
from .query import (
    OpNode,
    QueryNode,
    TermNode,
    count_nodes,
    parse_query,
    query_terms,
)
from .streams import (
    FaultTolerantStream,
    PostingStream,
    RecordingStream,
    ReplayStream,
    merge_streams,
)


@dataclass
class DAATResult(QueryResult):
    """A ranked result plus the stream-memory high-water mark.

    Degraded-mode nuance for streamed evaluation: a chunked record that
    fails *mid-stream* counts in ``terms_failed`` but its already-read
    chunks did contribute evidence — the stream ends early rather than
    un-scoring documents already finished.  A record unreadable at
    stream creation contributes nothing, as in the term-at-a-time
    engine.

    The pruning counters are zero whenever the query was evaluated
    exhaustively (``pruned`` is False): either pruning was off, or
    ``prune="auto"`` fell back because no safe bound was available.
    """

    peak_resident_bytes: int = 0
    documents_scored: int = 0
    pruned: bool = False
    documents_skipped: int = 0
    blocks_skipped: int = 0
    prune_threshold_updates: int = 0


def _flatten(tree: QueryNode) -> Tuple[List[str], List[float]]:
    """Terms and weights of a flat #sum/#wsum tree.

    Raises
    ------
    QueryError
        If the tree uses operators document-at-a-time does not cover.
    """
    if isinstance(tree, TermNode):
        return [tree.term], [1.0]
    if isinstance(tree, OpNode) and tree.op in ("sum", "wsum"):
        terms: List[str] = []
        weights: List[float] = []
        child_weights = tree.weights or (1.0,) * len(tree.children)
        for child, weight in zip(tree.children, child_weights):
            if not isinstance(child, TermNode):
                raise QueryError(
                    "document-at-a-time evaluation covers flat #sum/#wsum "
                    f"queries; found nested #{child.op}"
                )
            terms.append(child.term)
            weights.append(float(weight))
        return terms, weights
    raise QueryError(
        "document-at-a-time evaluation covers flat #sum/#wsum queries; "
        f"found #{tree.op}"
    )


def daat_queries(queries: List[str]) -> List[str]:
    """The flat #sum/#wsum subset document-at-a-time evaluates.

    Query sets with only structured queries (CACM's boolean/phrase
    styles) are flattened to ``#sum`` over their terms so every
    collection still exercises the document-at-a-time engine.
    """
    flat = []
    for query in queries:
        try:
            _flatten(parse_query(query))
        except QueryError:
            continue
        flat.append(query)
    if flat:
        return flat
    return [
        "#sum( " + " ".join(query_terms(parse_query(query))) + " )"
        for query in queries
    ]


class DocumentAtATimeEngine:
    """Ranks documents by streaming merged postings, one doc at a time."""

    def __init__(
        self,
        index: CollectionIndex,
        clock: Optional[SimClock] = None,
        top_k: int = DEFAULT_TOP_K,
        use_reservation: bool = True,
        prune: str = "off",
    ):
        self.index = index
        self.clock = clock if clock is not None else index.fs.disk.clock
        self.top_k = top_k
        self.use_reservation = use_reservation
        # Dynamic pruning mode: "off" (exhaustive, the default),
        # "auto" (prune when safe bounds exist, else evaluate
        # exhaustively), or "require" (raise PruningUnsupportedError
        # instead of falling back — for invariance harnesses that must
        # know pruning actually ran).
        if prune not in ("off", "auto", "require"):
            raise QueryError(f"unknown prune mode {prune!r}")
        self.prune = prune
        # Stream chunks and MaxScore blocks decode through one memo, as
        # the term-at-a-time engine's array reads do; only the fast path
        # consults it.
        self._decode_cache = _codec.DecodeCache()
        #: Optional term cache attached by the serving layer
        #: (``None`` = the historical path, byte-for-byte).
        self.term_cache = None

    def run_query(self, text: str) -> DAATResult:
        tree = parse_query(text)
        cost = self.clock.cost
        self.clock.charge_user(cost.cpu_ms_per_query_node * count_nodes(tree))
        terms, weights = _flatten(tree)
        total_weight = left_sum(weights)  # positive: the parser checked #wsum

        entries = [self.index.term_entry(term) for term in terms]
        if self.prune != "off":
            weighted = isinstance(tree, OpNode) and tree.op == "wsum"
            try:
                return self._run_pruned(
                    text, entries, weights, total_weight, weighted
                )
            except PruningUnsupportedError:
                if self.prune == "require":
                    raise
                # auto: no safe bound — evaluate exhaustively below.
        if self.use_reservation:
            # Best-effort, like the term-at-a-time engine: a storage
            # failure while probing residency pins nothing and moves on.
            for entry in entries:
                if entry is not None and entry.storage_key:
                    try:
                        self.index.store.reserve(entry.storage_key)
                    except BadBlockError:
                        break

        n_docs = max(len(self.index.doctable), 1)
        avg_len = max(self.index.doctable.average_length, 1.0)
        streams: List[Tuple[int, PostingStream]] = []
        idf: Dict[int, float] = {}
        lookups = 0
        attempted = 0
        failed = [0]  # list so mid-stream failure callbacks can bump it
        try:
            cache = self.term_cache
            for position, entry in enumerate(entries):
                if entry is None or entry.df == 0 or entry.storage_key == 0:
                    continue
                attempted += 1
                term = terms[position]
                hit = None
                if cache is not None:
                    self.clock.charge_user(cache.probe_ms)
                    # The tape is tied to the physical record it
                    # drained: a storage key reassigned by compaction
                    # re-homing misses instead of replaying stale data.
                    hit = cache.get(
                        "stream", term, fingerprint=(entry.storage_key,)
                    )
                if hit is not None:
                    # A replay reads nothing and skips the upfront
                    # decode charge (the probe above is the cost).
                    initial_resident, tape = hit.payload
                    stream: PostingStream = ReplayStream(tape, initial_resident)
                    stream.dead = hit.dead | self.index.tombstones
                else:
                    try:
                        inner = self.index.store.stream_postings(entry.storage_key)
                    except BadBlockError:
                        # Whole-record streams read eagerly; an unreadable
                        # record degrades to "term contributes no evidence".
                        failed[0] += 1
                        continue
                    stream = FaultTolerantStream(
                        inner, lambda _error: failed.__setitem__(0, failed[0] + 1)
                    )
                    if cache is not None:
                        stream = RecordingStream(
                            stream,
                            self._tape_committer(cache, term, entry),
                        )
                    stream.dead = self.index.tombstones
                    self.clock.charge_user(
                        cost.cpu_ms_per_kb_decode * (_record_bytes(entry) / 1024.0)
                    )
                streams.append((position, stream))
                lookups += 1
                idf[position] = inquery_idf(n_docs, entry.df)

            # The belief arithmetic below matches the term-at-a-time
            # network's expressions (order of operations included), so
            # rankings are bit-identical across the two engines.
            weighted = isinstance(tree, OpNode) and tree.op == "wsum"
            if _fastpath.enabled() and streams:
                from ..fastpath.daat import score_streams

                scores, peak_resident, scored = score_streams(
                    streams, len(weights), weights, total_weight, weighted,
                    idf, self.index.doctable, avg_len, self.clock,
                    decode=self._decode_cache.decode,
                )
                return self._finish(
                    text, scores, lookups, peak_resident, scored,
                    attempted, failed[0],
                )
            scores: Dict[int, float] = {}
            peak_resident = 0
            scored = 0
            for doc_id, evidence in merge_streams(streams):
                resident = sum(stream.resident_bytes for _t, stream in streams)
                if resident > peak_resident:
                    peak_resident = resident
                doc_len = self.index.doctable.length_of(doc_id)
                beliefs = [DEFAULT_BELIEF] * len(weights)
                for position, (_doc, positions) in evidence:
                    tf = len(positions)
                    tf_w = tf / (tf + 0.5 + 1.5 * doc_len / avg_len)
                    beliefs[position] = (
                        DEFAULT_BELIEF + (1.0 - DEFAULT_BELIEF) * tf_w * idf[position]
                    )
                # Fold in the exact order the term-at-a-time network
                # does — #wsum in particular must be `(Σ w·b) / Σw` even
                # for a single term, or the two engines drift by an ULP
                # (e.g. (3·b)/3 != b in binary floating point).
                if weighted:
                    scores[doc_id] = (
                        left_sum(w * b for w, b in zip(weights, beliefs)) / total_weight
                    )
                elif len(beliefs) == 1:
                    scores[doc_id] = beliefs[0]
                else:
                    scores[doc_id] = left_sum(beliefs) / len(beliefs)
                scored += 1
                self.clock.charge_user(cost.cpu_ms_per_posting * (len(evidence) + 1))
        finally:
            self.index.store.release_reservations()
        return self._finish(
            text, scores, lookups, peak_resident, scored, attempted, failed[0]
        )

    def _tape_committer(self, cache, term: str, entry):
        """Closure that caches a cleanly drained stream recording."""
        dead = set(self.index.tombstones)
        fingerprint = (entry.storage_key,)
        nbytes = _record_bytes(entry)

        def commit(recording: RecordingStream) -> None:
            cache.put(
                "stream", term,
                (recording.initial_resident, recording.tape),
                nbytes, dead=dead, fingerprint=fingerprint,
            )

        return commit

    def _finish(
        self,
        text: str,
        scores,
        lookups: int,
        peak_resident: int,
        scored: int,
        attempted: int = 0,
        failed: int = 0,
    ) -> DAATResult:
        """Charge the ranking pass and select the top k.

        ``scores`` is a dict on the reference path and an
        :class:`~repro.fastpath.beliefs.ArrayBeliefs` on the fast path;
        both selections produce the identical ranked list.
        """
        self.clock.charge_user(self.clock.cost.cpu_ms_per_posting * len(scores))
        return DAATResult(
            query=text,
            ranking=rank(scores, self.top_k),
            terms_looked_up=lookups,
            degraded=failed > 0,
            terms_attempted=attempted,
            terms_failed=failed,
            peak_resident_bytes=peak_resident,
            documents_scored=scored,
        )

    def _run_pruned(
        self,
        text: str,
        entries: List,
        weights: List[float],
        total_weight: float,
        weighted: bool,
    ) -> DAATResult:
        """MaxScore top-k evaluation (see :mod:`repro.fastpath.prune`).

        Raises :class:`~repro.errors.PruningUnsupportedError` before any
        storage access when no safe bound exists, so ``prune="auto"``
        can fall back to the exhaustive path with nothing consumed.
        """
        from ..fastpath.prune import run_pruned

        avg_len = max(self.index.doctable.average_length, 1.0)
        try:
            outcome = run_pruned(
                self.index.store,
                entries,
                weights,
                total_weight,
                weighted,
                self.index.doctable,
                avg_len,
                self.clock,
                self.top_k,
                tombstones=self.index.tombstones,
                term_cache=self.term_cache,
                decode=self._decode_cache.decode,
            )
        finally:
            self.index.store.release_reservations()
        return DAATResult(
            query=text,
            ranking=outcome.ranking,
            terms_looked_up=outcome.lookups,
            degraded=outcome.failed > 0,
            terms_attempted=outcome.attempted,
            terms_failed=outcome.failed,
            peak_resident_bytes=outcome.peak_resident_bytes,
            documents_scored=outcome.documents_scored,
            pruned=True,
            documents_skipped=outcome.documents_skipped,
            blocks_skipped=outcome.blocks_skipped,
            prune_threshold_updates=outcome.prune_threshold_updates,
        )

    def run_batch(self, queries: List[str]) -> List[DAATResult]:
        return [self.run_query(text) for text in queries]


def _record_bytes(entry) -> int:
    """Rough record size for the decode CPU charge (df-proportional)."""
    return 2 + entry.df * 4 + entry.ctf * 2
