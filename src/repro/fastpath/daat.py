"""Vectorized document-at-a-time scoring.

The reference :class:`~repro.inquery.daat.DocumentAtATimeEngine` merges
posting streams with a heap and finishes each document's belief before
touching the next.  This module batches that loop: each stream's
resident chunk is viewed as columnar arrays, and all documents covered
by the currently-resident chunks — a *window* — are scored in one set
of numpy operations.

Observational-identity contract (the same one every fast-path kernel
obeys):

* chunk refills are driven through the reference streams'
  ``_refill_raw`` in the exact order the heap merge would have
  triggered them, so every I/O, buffer reference, and simulated charge
  below the engine is unchanged;
* between refills the streams' resident bytes are constant, so the
  per-window resident snapshot equals every per-document snapshot the
  reference loop would have taken — ``peak_resident_bytes`` is
  identical;
* beliefs fold child-by-child in the reference order with the same
  elementwise IEEE-754 operations, so scores are bit-identical;
* the per-document engine charge (``cpu_ms_per_posting * (evidence +
  1)``) is applied document-by-document in document order, so the
  simulated clock accumulates the identical float sequence.

Dynamic top-k pruning (:mod:`repro.fastpath.prune`) shares this
module's window decomposition and the doc-id space's length table
(:func:`~repro.fastpath.beliefs.doc_id_space`), but scores
*fewer* documents by design — its contract is weaker here (I/O and
buffer observables may shrink) and stronger elsewhere (the surviving
top-k must be bit-identical to this module's exhaustive result).
"""

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..inquery.network import DEFAULT_BELIEF
from ..inquery.streams import PostingStream
from .beliefs import ArrayBeliefs, doc_id_space, sorted_union, term_beliefs
from .codec import dead_column_filter


def charge_user_bulk(clock, charges: np.ndarray) -> None:
    """Apply a vector of user-CPU charges in order.

    ``np.add.accumulate`` is a strictly sequential left-to-right sum,
    so ``user_ms`` ends at the identical IEEE-754 value a loop of
    ``clock.charge_user`` over ``charges`` would leave.
    """
    if charges.size:
        run = np.empty(charges.size + 1, dtype=np.float64)
        run[0] = clock.time.user_ms
        run[1:] = charges
        clock.time.user_ms = float(np.add.accumulate(run)[-1])


class _ArrayStream:
    """Columnar view over one reference stream's refill sequence.

    Wraps (never replaces) a :class:`PostingStream`: refills go through
    the wrapped stream's ``_refill_raw`` so chunk I/O order,
    ``resident_bytes``, and exhaustion transitions stay byte-for-byte
    what the reference merge produces.  Raw chunks go through
    ``decode`` (the engine's memo), then the stream's ``dead``
    documents are dropped, as the reference ``_refill`` drops them.
    """

    __slots__ = ("stream", "decode", "dead_filter", "doc_ids", "tf", "cursor")

    def __init__(self, stream: PostingStream, decode):
        self.stream = stream
        self.decode = decode
        self.dead_filter = dead_column_filter(stream.dead)
        self.doc_ids: Optional[np.ndarray] = None
        self.tf: Optional[np.ndarray] = None
        self.cursor = 0

    @property
    def resident_bytes(self) -> int:
        return self.stream.resident_bytes

    def ensure_batch(self) -> bool:
        """Array analogue of ``PostingStream.peek``'s refill loop.

        Returns ``True`` if at least one unconsumed posting is loaded.
        Mirrors the reference loop exactly — including retrying on a
        batch emptied by tombstones and zeroing ``resident_bytes`` on
        exhaustion — so refills happen at identical times.
        """
        while self.doc_ids is None or self.cursor >= self.doc_ids.size:
            stream = self.stream
            if stream.exhausted:
                return False
            batch = self._next_batch()
            if batch is None:
                stream.exhausted = True
                stream.resident_bytes = 0
                return False
            self.doc_ids, self.tf = batch
            self.cursor = 0
        return True

    def _next_batch(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        raw = self.stream._refill_raw()
        if raw is None:
            return None
        arrays = self.decode(raw)
        if self.dead_filter is None:
            return arrays.doc_ids, arrays.tf
        return self.dead_filter(arrays.doc_ids, arrays.tf)


def score_streams(
    streams: List[Tuple[int, PostingStream]],
    n_positions: int,
    weights: List[float],
    total_weight: float,
    weighted: bool,
    idf: Dict[int, float],
    doctable,
    avg_len: float,
    clock,
    *,
    decode: Callable,
) -> Tuple[ArrayBeliefs, int, int]:
    """Score every document of a flat ``#sum``/``#wsum`` stream merge.

    Returns ``(scores, peak_resident_bytes, documents_scored)`` with
    the same values the reference heap merge computes.  ``decode``
    turns a raw chunk into arrays — the engine's
    :meth:`~repro.fastpath.codec.DecodeCache.decode`.
    """
    cost = clock.cost
    wrappers = [
        (position, _ArrayStream(stream, decode)) for position, stream in streams
    ]
    lengths_of = doc_id_space(doctable).lengths_of
    # charge(evidence) has only len(streams) possible values; precompute
    # them with the reference expression so each per-document charge is
    # the identical float.
    charge = np.array([
        cost.cpu_ms_per_posting * (evidence + 1)
        for evidence in range(len(streams) + 1)
    ])
    doc_parts: List[np.ndarray] = []
    score_parts: List[np.ndarray] = []
    peak_resident = 0
    scored = 0
    while True:
        # Re-peek in stream order — the order the reference merge
        # re-peeks the streams it advanced last round (heap pops tie on
        # stream order), triggering any refills now.
        live = [
            (position, wrapper)
            for position, wrapper in wrappers
            if wrapper.ensure_batch()
        ]
        if not live:
            break
        resident = sum(wrapper.resident_bytes for _p, wrapper in wrappers)
        if resident > peak_resident:
            peak_resident = resident
        # All documents at or below the smallest batch-end are covered
        # by resident chunks: one refill-free window.
        end = min(int(wrapper.doc_ids[-1]) for _p, wrapper in live)
        window: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for position, wrapper in live:
            cursor = wrapper.cursor
            hi = cursor + int(
                np.searchsorted(wrapper.doc_ids[cursor:], end, side="right")
            )
            if hi > cursor:
                window.append(
                    (position, wrapper.doc_ids[cursor:hi], wrapper.tf[cursor:hi])
                )
                wrapper.cursor = hi
        if len(window) == 1:
            docs = window[0][1]
        else:
            docs = sorted_union([d for _p, d, _t in window])
        scored += int(docs.size)

        evidence_counts = np.zeros(docs.size, dtype=np.int64)
        columns: Dict[int, np.ndarray] = {}
        for position, stream_docs, tf in window:
            slots = np.searchsorted(docs, stream_docs)
            evidence_counts[slots] += 1  # slots are unique per stream
            beliefs = term_beliefs(
                tf, lengths_of(stream_docs), idf[position], avg_len, DEFAULT_BELIEF,
            )
            if stream_docs.size == docs.size:
                columns[position] = beliefs
            else:
                column = np.full(docs.size, DEFAULT_BELIEF, dtype=np.float64)
                column[slots] = beliefs
                columns[position] = column

        # Fold in the reference order: every child position in turn,
        # absent children contributing the default belief.
        if weighted:
            acc = np.zeros(docs.size, dtype=np.float64)
            for position in range(n_positions):
                column = columns.get(position)
                if column is None:
                    acc = acc + weights[position] * DEFAULT_BELIEF
                else:
                    acc = acc + weights[position] * column
            scores = acc / total_weight
        elif n_positions == 1:
            scores = columns[0]
        else:
            acc = np.zeros(docs.size, dtype=np.float64)
            for position in range(n_positions):
                column = columns.get(position)
                if column is None:
                    acc = acc + DEFAULT_BELIEF
                else:
                    acc = acc + column
            scores = acc / n_positions
        doc_parts.append(docs)
        score_parts.append(scores)

        # The reference loop charges once per document, in document
        # order; replay the identical float sequence.
        charge_user_bulk(clock, charge[evidence_counts])

    if not doc_parts:
        empty = np.empty(0, dtype=np.int64)
        return ArrayBeliefs(empty, np.empty(0, dtype=np.float64)), 0, 0
    all_docs = doc_parts[0] if len(doc_parts) == 1 else np.concatenate(doc_parts)
    all_scores = (
        score_parts[0] if len(score_parts) == 1 else np.concatenate(score_parts)
    )
    return ArrayBeliefs(all_docs, all_scores), peak_resident, scored
