"""MaxScore dynamic pruning: top-k evaluation that skips documents.

Exhaustive document-at-a-time evaluation scores every document any
query term mentions.  For a top-k request almost all of that work is
provably wasted: once k documents are on the heap, a candidate whose
*score ceiling* cannot beat the current threshold can be discarded
without computing its score — and a record chunk none of whose
documents can beat the threshold need never be fetched from the store.

This module implements the MaxScore strategy of Turtle & Flood
("Query evaluation: strategies and optimizations", 1995 — the same
INQUERY lineage as the paper's engine) over the bound metadata that
:mod:`repro.inquery.bounds` persists in Mneme records:

* terms are ordered by how much belief they can add over the default
  (``weight * (bound - default)``); the maximal prefix whose combined
  ceiling still loses to the heap threshold is the *non-essential* set;
* only essential streams drive iteration — a document with evidence
  solely in non-essential terms can never enter the heap, so it is
  never even visited;
* each candidate gets a refined ceiling from its exact essential
  beliefs plus per-chunk bounds for the non-essential terms (located by
  binary search over the sidecar's last-doc fence, without fetching the
  chunk); only survivors are exact-scored;
* the threshold only rises, so the non-essential prefix only grows.

Windows and strides
-------------------
Evaluation proceeds in *windows* — the documents covered by the
essential cursors' currently resident chunks — and, within a window,
in *strides* of :data:`PRUNE_STRIDE` candidates.  The heap threshold
and the essential/non-essential partition are frozen at each stride
boundary.  Freezing costs a little pruning power (the threshold a
candidate is tested against may be up to a stride stale, which is still
admissible because the threshold only rises) and makes a stride a
closed unit of work: which candidates are skipped, which blocks are
fetched in which order, and what is charged to the clock in which order
are functions of the stride's inputs alone.

Two drivers
-----------
The pure-Python reference driver (:func:`_run_reference`, used when the
fast path is off) *defines* a stride: one candidate at a time it tests
the ceiling, looks up the non-essential terms, and offers the score to
the heap.  The fast driver (:func:`_run_fast`) computes the same stride
as array operations (:func:`_replay_stride`) and is bound to the
reference by the **stride contract** — everything below is identical,
bit for bit, between the two:

* *skip decisions*: ceilings are folded column by column in the
  reference fold's operation order and compared with the frozen
  threshold, ties by document id;
* *fetch order*: a non-essential block is fetched at the first kept
  candidate that needs it, terms in non-essential order within one
  candidate, through the same ``ensure_block`` (same one-block cache,
  same term-cache tape, same bad-block handling).  A term that dies on
  a bad block loses its ceiling from the very next candidate on, so the
  fast driver settles the stride up to that candidate and re-decides
  the rest without the term;
* *charge sequence*: per candidate, one check charge (once a threshold
  exists), then the decode charge of every fetch that candidate
  triggered, then — if it was kept — its push charge.  The fast driver
  assembles that sequence as one vector and sums it strictly left to
  right, so ``user_ms`` is the identical IEEE-754 value.  The sum is
  applied once, after the stride's last fetch, so nothing that runs
  during a block fetch may read ``user_ms`` or ``wall_ms``;
* *heap traffic*: scored documents reach the heap in candidate order.
  The root only rises, so the fast driver first drops, with array
  compares, every document that cannot displace the root as it stood
  at the start of the stride, and runs the exact admission test on the
  rest — the same replacements, the same ``prune_threshold_updates``.

Rankings, the five pruning counters, ``peak_resident_bytes`` and the
whole simulated clock therefore agree between the drivers
(``tests/fastpath/test_prune_invariance.py`` checks it with the stride
patched down to 2-4 candidates, under tombstones, a warm term-cache
tape and injected bad blocks).

Bit-identity contract
---------------------
The ranking (document order, belief values, and tie-breaks) is
bit-identical to the exhaustive engines'.  Two properties guarantee it:

1. every skip is justified by an *admissible* ceiling — the bound
   arithmetic replaces operands of correctly-rounded monotone
   operations with values no smaller (see :mod:`repro.inquery.bounds`),
   so a computed bound can never fall below the computed belief, and
   the fold below mirrors the reference fold's operation order;
2. ties are skipped only when they would lose the tie-break: a
   candidate whose ceiling *equals* the threshold is still scored when
   its document id is smaller than the heap root's (ascending-id wins).

What is *not* identical: the simulated I/O and CPU observables.
Pruning exists to do less work, so record lookups, buffer traffic, and
charge totals legitimately differ from exhaustive evaluation — that is
the measured effect, while the ranking invariance above is the safety
property the test suite locks down.
"""

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import BadBlockError, PruningUnsupportedError
from ..inquery.bounds import PrunableSource, belief_bound
from ..inquery.network import DEFAULT_BELIEF, inquery_idf, left_sum
from ..inquery.postings import decode_record
from . import state as _fastpath
from .codec import dead_column_filter

#: Candidates evaluated between threshold refreshes.  Both drivers
#: honour the same boundaries, so their skip decisions are identical.
#: Larger strides amortize the fast driver's per-stride array setup but
#: test candidates against a staler (still admissible) threshold.  The
#: value is part of the observable algorithm: changing it moves the
#: pruning counters and every simulated figure derived from them.
PRUNE_STRIDE = 512


def _entry_bytes(entry) -> int:
    """Rough record size for the term-cache byte charge (df-proportional,
    the same estimate the exhaustive engines use for the decode charge).
    The tape is admitted at full-record size up front even though blocks
    fill in lazily — conservative, so the budget can never be breached
    by late fills."""
    return 2 + entry.df * 4 + entry.ctf * 2


@dataclass
class PruneOutcome:
    """Ranking plus the pruning-effect counters for one query."""

    ranking: List[Tuple[int, float]]
    documents_scored: int = 0
    documents_skipped: int = 0
    blocks_skipped: int = 0
    prune_threshold_updates: int = 0
    peak_resident_bytes: int = 0
    lookups: int = 0
    attempted: int = 0
    failed: int = 0


def _memo_block_decoder(decode: Callable) -> Callable[[bytes], tuple]:
    """Raw block -> (doc ids, tfs), both ascending by document, unfiltered.

    The fast decoder returns the numpy columns of ``decode`` (the
    engine's memo), which the fast driver slices wholesale;
    :func:`_reference_block_decoder` ignores the memo, decodes every
    block and returns pure-Python lists.  Both carry the same integers,
    so everything downstream — candidate order, bounds, scores, skip
    counters — is decoder-independent.  Tombstone filtering is a
    *separate* step (the dead filter, applied per cursor after every
    decode) so term-cache tapes stay epoch-raw and reusable.
    """

    def decode_fast(raw: bytes):
        arrays = decode(raw)
        return arrays.doc_ids, arrays.tf

    return decode_fast


def _reference_block_decoder(raw: bytes):
    postings = decode_record(raw)
    return [d for d, _p in postings], [len(p) for _d, p in postings]


def _reference_dead_filter(dead) -> Optional[Callable]:
    """(docs, tfs) -> (docs, tfs) with ``dead`` documents dropped.

    The list twin of :func:`~repro.fastpath.codec.dead_column_filter`:
    ``None`` when there is nothing to filter (the common case: the
    decoded columns pass through untouched).  The dead filter is the
    single tombstone choke point of the pruned path; the per-block bound
    sidecars stay keyed to the physical blocks and remain admissible (a
    dead document can only make a bound stale-*high*).
    """
    if not dead:
        return None

    def filter_ref(docs, tfs):
        kept = [(d, t) for d, t in zip(docs, tfs) if d not in dead]
        return [d for d, _t in kept], [t for _d, t in kept]

    return filter_ref


class _TermCursor:
    """One live query term's iteration state over its block source."""

    __slots__ = (
        "position", "source", "idf", "ub", "block", "offset",
        "docs", "tfs", "block_bytes", "cache_block", "cache_docs",
        "cache_tfs", "cache_bytes", "dead", "ub_table", "last_arr",
        "tape", "dead_filter",
    )

    def __init__(self, position: int, source: PrunableSource, idf: float, ub: float):
        self.position = position
        self.source = source
        self.idf = idf
        self.ub = ub                 #: term-level belief ceiling
        self.block = 0               #: essential-iteration cursor
        self.offset = 0
        self.docs = None
        self.tfs = None
        self.block_bytes = 0         #: raw bytes of the cursor block
        self.cache_block = -1        #: last block fetched for NE lookups
        self.cache_docs = None
        self.cache_tfs = None
        self.cache_bytes = 0
        self.dead = False
        self.ub_table = None         #: fast driver: per-block bound column
        self.last_arr = None         #: fast driver: last-doc fence column
        self.tape = None             #: term-cache raw-block dict, or None
        self.dead_filter = None      #: post-decode tombstone filter


class _Evaluator:
    """Shared machinery: block fetch/decode, bounds, and the fold."""

    def __init__(self, decode, clock, weights, total_weight, weighted, on_failure):
        self._decode = decode
        self._clock = clock
        self.weights = weights
        self.total_weight = total_weight
        self.weighted = weighted
        self._on_failure = on_failure
        self.resident = 0
        self.peak_resident = 0

    def fail(self) -> None:
        self._on_failure()

    def fetch_decoded(self, cursor: _TermCursor, block: int, charge=None):
        """Fetch + decode one block, charging decode CPU for the bytes
        actually transferred (exhaustive evaluation charges for whole
        records; pruned evaluation pays only for what it reads).  The
        charge goes to ``charge`` when given (the fast driver places it
        in the stride's charge sequence itself), else to the clock.

        With a term-cache tape attached the block's raw bytes may
        already be resident: the store read and the decode charge are
        elided, but the block still counts as fetched (it was not
        pruned) and still reports its raw size so the resident-byte
        trajectory matches a cache-off run exactly.  Tombstone filtering
        happens *after* the decode, so cached blocks stay epoch-raw.
        """
        tape = cursor.tape
        raw = tape.get(block) if tape is not None else None
        if raw is None:
            raw = cursor.source.fetch_block(block)
            (charge or self._clock.charge_user)(
                self._clock.cost.cpu_ms_per_kb_decode * (len(raw) / 1024.0)
            )
            if tape is not None:
                tape[block] = raw
        else:
            cursor.source.mark_fetched(block)
        docs, tfs = self._decode(raw)
        if cursor.dead_filter is not None:
            docs, tfs = cursor.dead_filter(docs, tfs)
        return (docs, tfs), len(raw)

    def track(self, grew: int) -> None:
        self.resident += grew
        if self.resident > self.peak_resident:
            self.peak_resident = self.resident

    def current_doc(self, cursor: _TermCursor) -> Optional[int]:
        """Essential iteration: the cursor's next unconsumed document."""
        while True:
            if cursor.dead:
                return None
            if cursor.docs is None:
                if cursor.block >= cursor.source.n_blocks:
                    return None
                try:
                    (docs, tfs), nbytes = self.fetch_decoded(cursor, cursor.block)
                except BadBlockError:
                    cursor.dead = True
                    self._on_failure()
                    return None
                cursor.block_bytes = nbytes
                self.track(nbytes)
                cursor.docs, cursor.tfs = docs, tfs
                cursor.offset = 0
            if cursor.offset < len(cursor.docs):
                return cursor.docs[cursor.offset]
            self.track(-cursor.block_bytes)
            cursor.block_bytes = 0
            cursor.block += 1
            cursor.docs = cursor.tfs = None

    def ensure_block(self, cursor: _TermCursor, block: int, charge=None):
        """(docs, tfs) of ``block``, through the non-essential cache.

        The cursor's own resident chunk is reused when it is the one
        asked for (a freshly demoted term keeps its partially consumed
        chunk); otherwise a one-block cache holds the last chunk this
        term was probed in — candidates arrive in ascending order, so
        repeat fetches are rare.  Returns ``None`` on a bad block.
        """
        if cursor.docs is not None and block == cursor.block:
            return cursor.docs, cursor.tfs
        if block == cursor.cache_block:
            return cursor.cache_docs, cursor.cache_tfs
        try:
            (docs, tfs), nbytes = self.fetch_decoded(cursor, block, charge)
        except BadBlockError:
            cursor.dead = True
            self._on_failure()
            return None
        self.track(nbytes - cursor.cache_bytes)
        cursor.cache_bytes = nbytes
        cursor.cache_block = block
        cursor.cache_docs, cursor.cache_tfs = docs, tfs
        return docs, tfs

    def lookup_tf(self, cursor: _TermCursor, doc: int) -> Optional[int]:
        """Non-essential lookup: tf of ``doc`` in this term, or ``None``."""
        if cursor.dead:
            return None
        block = cursor.source.block_of_doc(doc)
        if block >= cursor.source.n_blocks:
            return None
        loaded = self.ensure_block(cursor, block)
        if loaded is None:
            return None
        docs, tfs = loaded
        index = bisect_left(docs, doc)
        if index < len(docs) and docs[index] == doc:
            return tfs[index]
        return None

    def chunk_ub(self, cursor: _TermCursor, doc: int) -> float:
        """Per-chunk belief ceiling for ``doc``, without fetching it."""
        if cursor.dead:
            return DEFAULT_BELIEF
        block = cursor.source.block_of_doc(doc)
        if block >= cursor.source.n_blocks:
            return DEFAULT_BELIEF
        last = cursor.source.last_docs[block]
        if last is None:
            return cursor.ub
        return belief_bound(cursor.source.max_tfs[block], cursor.idf)

    def fold(self, values: List[float]) -> float:
        """The reference fold — same expressions, same operation order,
        as the exhaustive engines, so exact scores are bit-identical
        and (by operand monotonicity) folded ceilings are admissible."""
        if self.weighted:
            return (
                left_sum(w * v for w, v in zip(self.weights, values))
                / self.total_weight
            )
        if len(values) == 1:
            return values[0]
        return left_sum(values) / len(values)


class _PruneState:
    """Heap, partition, and counters — shared by both drivers."""

    def __init__(self, evaluator, cursors, order, doctable, avg_len, clock,
                 top_k, n_positions, outcome):
        self.evaluator = evaluator
        self.cursors = cursors
        self.order = order
        self.doctable = doctable
        self.avg_len = avg_len
        self.clock = clock
        self.cost = clock.cost
        self.top_k = top_k
        self.n_positions = n_positions
        self.outcome = outcome
        self.heap: List[Tuple[float, int]] = []  # (score, -doc): root = worst
        self.ne_len = 0

    def _fold_ceiling(self, ne_positions) -> float:
        values = [DEFAULT_BELIEF] * self.n_positions
        for position in ne_positions:
            values[position] = self.cursors[position].ub
        return self.evaluator.fold(values)

    def _grow_partition(self) -> bool:
        """Extend the non-essential prefix as far as the threshold allows.

        Strict ``<``: a set whose combined ceiling *equals* the
        threshold could still produce a tie that wins on document id,
        so it must stay essential.  Returns whether the prefix grew.
        """
        theta_score = self.heap[0][0]
        grew = False
        while self.ne_len < len(self.order):
            if self._fold_ceiling(self.order[: self.ne_len + 1]) < theta_score:
                self.ne_len += 1
                grew = True
            else:
                break
        return grew

    def stride_theta(self):
        """Stride-boundary refresh: grow the partition if the heap is
        full and snapshot the threshold the next stride is tested
        against.  Returns ``(partition_grew, theta)`` where ``theta``
        is ``(score, doc id)`` or ``None`` while the heap is short."""
        if len(self.heap) >= self.top_k:
            grew = self._grow_partition()
            score, neg_doc = self.heap[0]
            return grew, (score, -neg_doc)
        return False, None

    def begin_window(self):
        """Open the next window: refresh the partition, load the
        essential cursors' chunks (in essential order — the fetch order
        both drivers share), and snapshot the threshold.  Returns
        ``(live positions, theta)`` or ``None`` when evaluation is
        done."""
        if len(self.heap) >= self.top_k:
            self._grow_partition()
        if self.ne_len >= len(self.order):
            return None
        live = []
        for position in self.order[self.ne_len:]:
            if self.evaluator.current_doc(self.cursors[position]) is not None:
                live.append(position)
        if not live:
            return None
        theta = None
        if len(self.heap) >= self.top_k:
            score, neg_doc = self.heap[0]
            theta = (score, -neg_doc)
        return live, theta

    def push(self, doc: int, score: float, evidence: int) -> None:
        """Account one exact-scored document and offer it to the heap."""
        self.outcome.documents_scored += 1
        self.clock.charge_user(self.cost.cpu_ms_per_posting * (evidence + 1))
        item = (score, -doc)
        heap = self.heap
        if len(heap) < self.top_k:
            heapq.heappush(heap, item)
            if len(heap) == self.top_k:
                self.outcome.prune_threshold_updates += 1
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
            self.outcome.prune_threshold_updates += 1


def _run_reference(state: _PruneState) -> None:
    """Pure-Python driver: one candidate at a time, stride-frozen theta."""
    evaluator = state.evaluator
    cursors = state.cursors
    clock = state.clock
    outcome = state.outcome
    avg_len = state.avg_len
    check_charge = state.cost.cpu_ms_per_posting
    while True:
        opened = state.begin_window()
        if opened is None:
            return
        live, theta = opened
        live_cursors = [cursors[position] for position in live]
        window_end = min(cursor.docs[-1] for cursor in live_cursors)
        stride_left = PRUNE_STRIDE
        while True:
            candidate = None
            for cursor in live_cursors:
                if cursor.offset < len(cursor.docs):
                    doc = cursor.docs[cursor.offset]
                    if candidate is None or doc < candidate:
                        candidate = doc
            if candidate is None or candidate > window_end:
                break  # window consumed: advance chunks, open the next
            if stride_left == 0:
                grew, theta = state.stride_theta()
                if grew:
                    break  # partition changed: rebuild the window
                stride_left = PRUNE_STRIDE
            stride_left -= 1

            # Exact essential evidence (consumed whether or not we skip —
            # essential streams are read in full while they stay
            # essential).
            doc_len = state.doctable.length_of(candidate)
            beliefs = [DEFAULT_BELIEF] * state.n_positions
            evidence = 0
            for cursor in live_cursors:
                if cursor.offset < len(cursor.docs) \
                        and cursor.docs[cursor.offset] == candidate:
                    tf = cursor.tfs[cursor.offset]
                    cursor.offset += 1
                    tf_w = tf / (tf + 0.5 + 1.5 * doc_len / avg_len)
                    beliefs[cursor.position] = (
                        DEFAULT_BELIEF + (1.0 - DEFAULT_BELIEF) * tf_w * cursor.idf
                    )
                    evidence += 1

            if theta is not None:
                theta_score, theta_doc = theta
                values = list(beliefs)
                for position in state.order[: state.ne_len]:
                    values[position] = evaluator.chunk_ub(
                        cursors[position], candidate
                    )
                ceiling = evaluator.fold(values)
                clock.charge_user(check_charge)
                if ceiling < theta_score or (
                    ceiling == theta_score and candidate > theta_doc
                ):
                    outcome.documents_skipped += 1
                    continue

            for position in state.order[: state.ne_len]:
                tf = evaluator.lookup_tf(cursors[position], candidate)
                if tf is not None:
                    tf_w = tf / (tf + 0.5 + 1.5 * doc_len / avg_len)
                    beliefs[position] = (
                        DEFAULT_BELIEF
                        + (1.0 - DEFAULT_BELIEF) * tf_w * cursors[position].idf
                    )
                    evidence += 1
            state.push(candidate, evaluator.fold(beliefs), evidence)


def _stride_blocks(cursor: _TermCursor, chunk):
    """Vectorized ``block_of_doc`` over a stride's candidates.

    ``n_blocks`` stands for "beyond the fence" (no evidence), matching
    the extra slot at the end of ``cursor.ub_table`` — the per-block
    :meth:`_Evaluator.chunk_ub` column, built here on first use.
    """
    import numpy as np

    source = cursor.source
    n_blocks = source.n_blocks
    if cursor.ub_table is None:
        table = np.empty(n_blocks + 1, dtype=np.float64)
        for block in range(n_blocks):
            last = source.last_docs[block]
            table[block] = (
                cursor.ub if last is None
                else belief_bound(source.max_tfs[block], cursor.idf)
            )
        table[n_blocks] = DEFAULT_BELIEF
        cursor.ub_table = table
        if n_blocks > 1:
            cursor.last_arr = np.asarray(source.last_docs, dtype=np.int64)
    if n_blocks == 1:
        return np.zeros(chunk.size, dtype=np.int64)
    return np.minimum(
        np.searchsorted(cursor.last_arr, chunk, side="left"), n_blocks
    )


def _fold_columns(evaluator: _Evaluator, n_positions: int, size: int, columns):
    """:meth:`_Evaluator.fold` over whole columns.

    ``columns`` maps positions to belief columns; a position without
    one contributes the default belief.  Accumulating position by
    position is the reference fold's operation order applied
    elementwise, so every folded value is bit-identical to the scalar
    fold of that row.
    """
    import numpy as np

    if evaluator.weighted:
        acc = np.zeros(size, dtype=np.float64)
        for position in range(n_positions):
            acc = acc + evaluator.weights[position] * columns.get(
                position, DEFAULT_BELIEF
            )
        return acc / evaluator.total_weight
    if n_positions == 1:
        only = columns.get(0)
        return only if only is not None \
            else np.full(size, DEFAULT_BELIEF, dtype=np.float64)
    acc = np.zeros(size, dtype=np.float64)
    for position in range(n_positions):
        acc = acc + columns.get(position, DEFAULT_BELIEF)
    return acc / n_positions


def _fetch_non_essential(state: _PruneState, ne, docs):
    """Issue non-essential fetches for kept candidates ``docs``.

    ``ne`` is ``(position, cursor, blocks)`` per live non-essential
    term, ``blocks`` already narrowed to ``docs``.  The reference loop
    fetches a block at the first kept candidate that needs it, terms in
    non-essential order within a candidate; blocks ascend with the
    candidates, so that is one event per distinct block per term,
    sorted by (first candidate, term).  Each event goes through
    ``ensure_block`` — same cache transitions, same bad-block handling
    — and scatters the block's tfs to every kept candidate it covers.
    Decode charges are not applied but collected as ``(candidate
    index, ms)`` for the caller's charge sequence.

    Returns ``(tf columns by position, decodes, cut)``.  ``cut`` is ``None``
    unless a term died on a bad block: the reference loop drops a dead
    term's ceiling from the very next candidate on, so the skip
    decisions past that candidate are void.  Fetching stops after the
    candidate's remaining terms and ``cut`` counts the candidates (up
    to and including it) whose columns are final.
    """
    import numpy as np

    events = []
    for rank, (_position, cursor, blocks) in enumerate(ne):
        if blocks[0] == blocks[-1]:
            bounds = (0, docs.size)
        else:
            bounds = [0, *(np.flatnonzero(blocks[1:] != blocks[:-1]) + 1).tolist(),
                      docs.size]
        n_blocks = cursor.source.n_blocks
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = int(blocks[lo])
            if block < n_blocks:
                events.append((lo, rank, block, hi))
    events.sort()

    tf_columns = {}
    decodes = []
    cut = None
    for lo, rank, block, hi in events:
        if cut is not None and lo >= cut:
            break
        position, cursor, _blocks = ne[rank]
        loaded = state.evaluator.ensure_block(
            cursor, block, charge=lambda ms, at=lo: decodes.append((at, ms))
        )
        if loaded is None:
            cut = lo + 1
            continue
        block_docs, block_tfs = loaded
        if not len(block_docs):
            continue  # emptied by tombstone filtering
        wanted = docs[lo:hi]
        index = np.minimum(
            np.searchsorted(block_docs, wanted), len(block_docs) - 1
        )
        column = tf_columns.get(position)
        if column is None:
            column = tf_columns[position] = np.zeros(docs.size, dtype=np.int64)
        column[lo:hi] = np.where(block_docs[index] == wanted, block_tfs[index], 0)
    return tf_columns, decodes, cut


def _offer(state: _PruneState, docs, scores) -> None:
    """Heap admission for one stride's scored documents, in order.

    The root only rises, so a document that cannot displace the root as
    it stands when the heap is full can never displace a later one:
    filter against that frozen root with array compares and run the
    exact ``push`` test only on the contenders.
    """
    import numpy as np

    heap = state.heap
    outcome = state.outcome
    if len(heap) < state.top_k:
        filled = min(state.top_k - len(heap), docs.size)
        for score, doc in zip(scores[:filled].tolist(), docs[:filled].tolist()):
            heapq.heappush(heap, (score, -doc))
        if len(heap) == state.top_k:
            outcome.prune_threshold_updates += 1
        if filled == docs.size:
            return
        docs, scores = docs[filled:], scores[filled:]
    root_score, root_neg_doc = heap[0]
    contenders = np.flatnonzero(
        (scores > root_score) | ((scores == root_score) & (docs < -root_neg_doc))
    )
    for score, doc in zip(scores[contenders].tolist(), docs[contenders].tolist()):
        item = (score, -doc)
        if item > heap[0]:
            heapq.heapreplace(heap, item)
            outcome.prune_threshold_updates += 1


def _replay_stride(state: _PruneState, chunk, columns, counts, theta, lengths_of):
    """One stride — threshold and partition frozen — as array operations.

    ``columns`` maps essential positions to exact belief columns over
    ``chunk`` and ``counts`` is the essential evidence per candidate.
    Nothing observable moves relative to the reference loop:

    * skip decisions come from ceilings folded in the reference order;
    * non-essential blocks are fetched in the reference order
      (:func:`_fetch_non_essential`);
    * the user clock receives the reference charge sequence — per
      candidate a check (once a threshold exists), then the decode
      charges of the fetches it triggered, then its push — as one
      vector summed strictly left to right;
    * the heap sees the scored documents in candidate order.

    Returns how many candidates were settled: all of them, unless a
    non-essential term died mid-stride, in which case the caller
    replays the rest (same threshold, one live term fewer).
    """
    import numpy as np

    from .beliefs import term_beliefs
    from .daat import charge_user_bulk

    evaluator = state.evaluator
    outcome = state.outcome
    cost = state.cost
    ne = []  # (position, cursor, block per candidate) per live non-essential term
    for position in state.order[: state.ne_len]:
        cursor = state.cursors[position]
        if not cursor.dead:
            ne.append((position, cursor, _stride_blocks(cursor, chunk)))

    settled = chunk.size
    kept = None  # indices of the candidates that survive the check; None = all
    if theta is not None:
        ceilings = {
            position: cursor.ub_table[blocks] for position, cursor, blocks in ne
        }
        ceilings.update(columns)
        ceiling = _fold_columns(
            evaluator, state.n_positions, chunk.size, ceilings
        )
        theta_score, theta_doc = theta
        kept = np.flatnonzero(
            (ceiling > theta_score)
            | ((ceiling == theta_score) & (chunk <= theta_doc))
        )
        if kept.size == chunk.size:
            kept = None

    def narrow(column):
        return column[:settled] if kept is None else column[kept]

    tf_columns, decodes = {}, []
    if ne and (kept is None or kept.size):
        tf_columns, decodes, cut = _fetch_non_essential(
            state,
            [(position, cursor, narrow(blocks)) for position, cursor, blocks in ne],
            narrow(chunk),
        )
        if cut is not None:
            tf_columns = {p: column[:cut] for p, column in tf_columns.items()}
            if kept is None:
                settled = cut
            else:
                kept = kept[:cut]
                settled = int(kept[-1]) + 1

    docs = narrow(chunk)
    evidence = narrow(counts)
    beliefs = {position: narrow(column) for position, column in columns.items()}
    if tf_columns:
        doc_lengths = lengths_of(docs)
        for position, tf in tf_columns.items():
            # tf == 0 (no posting) folds to exactly DEFAULT_BELIEF.
            beliefs[position] = term_beliefs(
                tf, doc_lengths, state.cursors[position].idf,
                state.avg_len, DEFAULT_BELIEF,
            )
            evidence = evidence + (tf > 0)
    scores = _fold_columns(evaluator, state.n_positions, docs.size, beliefs)

    pushes = cost.cpu_ms_per_posting * (evidence + 1)
    if theta is None and not decodes:
        charges = pushes
    else:
        # Slot 3j is candidate j's check, 3j+1 its decodes, 3j+2 its push.
        everyone = np.arange(settled)
        where = everyone if kept is None else kept
        keys = [3 * where + 2]
        values = [pushes]
        if decodes:
            at, ms = zip(*decodes)
            keys.append(3 * where[list(at)] + 1)
            values.append(np.array(ms, dtype=np.float64))
        if theta is not None:
            keys.append(3 * everyone)
            values.append(np.full(settled, cost.cpu_ms_per_posting))
        charges = np.concatenate(values)[
            np.argsort(np.concatenate(keys), kind="stable")
        ]
    charge_user_bulk(state.clock, charges)

    outcome.documents_skipped += settled - int(docs.size)
    outcome.documents_scored += int(docs.size)
    if docs.size:
        _offer(state, docs, scores)
    return settled


def _run_fast(state: _PruneState) -> None:
    """Vectorized driver: windows batched, strides replayed as arrays.

    Everything observable happens where the reference driver puts it —
    chunk loads in essential order at window starts, then per stride
    the fetch order, charge sequence and heap traffic that
    :func:`_replay_stride` reproduces.
    """
    import numpy as np

    from .beliefs import doc_id_space, sorted_union, term_beliefs

    cursors = state.cursors
    lengths_of = doc_id_space(state.doctable).lengths_of
    while True:
        opened = state.begin_window()
        if opened is None:
            return
        live, theta = opened
        live_cursors = [cursors[position] for position in live]
        window_end = min(int(cursor.docs[-1]) for cursor in live_cursors)

        # The window's candidates and exact essential beliefs, in one
        # batch: a live cursor's unconsumed slice up to the window end
        # is exactly the evidence the reference loop would consume.
        parts = []
        for cursor in live_cursors:
            lo = cursor.offset
            hi = int(np.searchsorted(cursor.docs, window_end, side="right"))
            if hi > lo:
                parts.append((cursor, lo, hi))
        if len(parts) == 1:
            cand = parts[0][0].docs[parts[0][1]: parts[0][2]]
        else:
            cand = sorted_union([c.docs[lo:hi] for c, lo, hi in parts])
        ev_counts = np.zeros(cand.size, dtype=np.int64)
        columns: Dict[int, np.ndarray] = {}
        for cursor, lo, hi in parts:
            docs = cursor.docs[lo:hi]
            slots = np.searchsorted(cand, docs)
            ev_counts[slots] += 1
            beliefs = term_beliefs(
                cursor.tfs[lo:hi], lengths_of(docs),
                cursor.idf, state.avg_len, DEFAULT_BELIEF,
            )
            if docs.size == cand.size:
                columns[cursor.position] = beliefs
            else:
                column = np.full(cand.size, DEFAULT_BELIEF, dtype=np.float64)
                column[slots] = beliefs
                columns[cursor.position] = column

        abandoned = False
        start = 0
        while start < cand.size:
            if start:
                grew, theta = state.stride_theta()
                if grew:
                    abandoned = True
                    break
            stop = min(start + PRUNE_STRIDE, cand.size)
            at = start
            while at < stop:
                at += _replay_stride(
                    state, cand[at:stop],
                    {position: column[at:stop]
                     for position, column in columns.items()},
                    ev_counts[at:stop], theta, lengths_of,
                )
            start = stop

        # Sync consumption: the reference loop advances offsets one
        # candidate at a time; wholesale assignment lands on the same
        # offsets because every cursor document in range is a candidate.
        if abandoned:
            if start:
                last = int(cand[start - 1])
                for cursor, lo, hi in parts:
                    cursor.offset = lo + int(
                        np.searchsorted(
                            cursor.docs[lo:hi], last, side="right"
                        )
                    )
        else:
            for cursor, lo, hi in parts:
                cursor.offset = hi


def run_pruned(
    store,
    entries: List[Optional[object]],
    weights: List[float],
    total_weight: float,
    weighted: bool,
    doctable,
    avg_len: float,
    clock,
    top_k: int,
    tombstones: Optional[set] = None,
    term_cache=None,
    *,
    decode: Callable,
) -> PruneOutcome:
    """Top-k evaluation of one flat #sum/#wsum query with MaxScore.

    ``entries`` is positional (one slot per query child, ``None`` or
    df==0 for terms with no evidence).  The fast-path switch is read
    once, here, and picks the driver with its decoder and dead filter.
    ``decode`` is the fast driver's raw block ->
    :class:`~repro.fastpath.codec.RecordArrays` decoder (the engine's
    memo); the reference driver never uses it.  Raises
    :class:`~repro.errors.PruningUnsupportedError` when no safe bound
    exists: a negative #wsum weight (the fold is no longer monotone in
    each belief) or a live term without bound metadata (a record built
    before bounds existed).
    """
    if weighted:
        for weight in weights:
            if weight < 0:
                raise PruningUnsupportedError("negative #wsum weight")
    live_entries = [
        (position, entry)
        for position, entry in enumerate(entries)
        if entry is not None and entry.df > 0 and entry.storage_key != 0
    ]
    for _position, entry in live_entries:
        if entry.max_tf <= 0:
            raise PruningUnsupportedError(
                f"term {entry.term!r} has no max-tf bound metadata"
            )

    cost = clock.cost
    n_docs = max(len(doctable), 1)
    n_positions = len(weights)
    outcome = PruneOutcome(ranking=[])
    failures = [0]
    dead_now = set(tombstones) if tombstones else set()
    if _fastpath.enabled():
        decode_block, dead_filter, drive = (
            _memo_block_decoder(decode), dead_column_filter, _run_fast
        )
    else:
        decode_block, dead_filter, drive = (
            _reference_block_decoder, _reference_dead_filter, _run_reference
        )
    evaluator = _Evaluator(
        decode_block, clock, weights, total_weight, weighted,
        lambda: failures.__setitem__(0, failures[0] + 1),
    )
    base_filter = dead_filter(dead_now)

    cursors: Dict[int, _TermCursor] = {}
    for position, entry in live_entries:
        outcome.attempted += 1
        idf = inquery_idf(n_docs, entry.df)
        try:
            source = store.open_prune_source(entry)
        except BadBlockError:
            failures[0] += 1
            continue
        outcome.lookups += 1
        cursor = _TermCursor(
            position, source, idf, belief_bound(entry.max_tf, idf)
        )
        cursor.dead_filter = base_filter
        if term_cache is not None:
            # The tape is tied to the record's physical block layout:
            # compaction re-splitting the chunks changes the
            # fingerprint, so the stale tape misses and is replaced.
            fingerprint = (
                entry.storage_key, source.n_blocks,
                tuple(source.last_docs), tuple(source.max_tfs),
            )
            clock.charge_user(term_cache.probe_ms)
            hit = term_cache.get("blocks", entry.term, fingerprint=fingerprint)
            if hit is not None:
                cursor.tape = hit.payload
                cursor.dead_filter = dead_filter(hit.dead | dead_now)
            else:
                tape = {}
                term_cache.put(
                    "blocks", entry.term, tape, _entry_bytes(entry),
                    dead=dead_now, fingerprint=fingerprint,
                )
                cursor.tape = tape
        cursors[position] = cursor

    # Benefit ordering: how much belief the term can add over an absent
    # term's default contribution.  Ascending, so the non-essential set
    # is always a prefix.
    def benefit(position: int) -> float:
        gain = cursors[position].ub - DEFAULT_BELIEF
        return weights[position] * gain if weighted else gain

    order = sorted(cursors, key=lambda position: (benefit(position), position))
    state = _PruneState(
        evaluator, cursors, order, doctable, avg_len, clock,
        top_k, n_positions, outcome,
    )
    drive(state)

    # Final selection order matches heapq.nsmallest's (-score, doc) key.
    clock.charge_user(cost.cpu_ms_per_posting * len(state.heap))
    outcome.ranking = [
        (int(-neg_doc), float(score))
        for score, neg_doc in sorted(
            state.heap, key=lambda item: (-item[0], -item[1])
        )
    ]
    outcome.peak_resident_bytes = evaluator.peak_resident
    outcome.failed = failures[0]
    outcome.blocks_skipped = sum(
        cursor.source.n_blocks - cursor.source.blocks_fetched
        for cursor in cursors.values()
    )
    return outcome
