"""Posting streams: incremental access to inverted list records.

Term-at-a-time INQUERY "reads the complete record for one term ...
However, it requires large amounts of memory for large collections,
because several inverted list records must be kept in memory
simultaneously.  A 'document-at-a-time' approach, which gathered all of
the evidence for one document before proceeding to the next, might scale
better to large collections.  However, it would be cumbersome with the
current custom B-tree package."  (Section 3.1.)

With Mneme's linked objects it is not cumbersome: a large record stored
as a chain of self-contained chunks can be consumed one chunk at a time.
A :class:`PostingStream` yields postings in document order while
reporting how many record bytes it holds resident, which is what the
document-at-a-time memory benchmark measures.
"""

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import BadBlockError
from .postings import Posting, decode_record, live_postings


class PostingStream:
    """Sequential reader over one term's postings.

    Subclasses implement :meth:`_refill_raw` to supply the next record
    piece; ``resident_bytes`` must reflect the record bytes currently
    held in memory for this stream.  ``dead`` holds tombstoned
    documents: they are dropped from every piece after it is decoded,
    by :meth:`_refill` here and by the fast-path scorer after its own
    decode, so each consumer sees exactly the postings a record rebuilt
    without the dead documents would decode to.
    """

    dead = frozenset()

    def __init__(self):
        self._batch: List[Posting] = []
        self._index = 0
        self.resident_bytes = 0
        self.exhausted = False

    def _refill(self) -> Optional[List[Posting]]:
        """Return the next batch of live postings, or ``None`` at the end."""
        raw = self._refill_raw()
        if raw is None:
            return None
        return live_postings(decode_record(raw), self.dead)

    def _refill_raw(self) -> Optional[bytes]:
        """Return the next undecoded record piece, or ``None`` at the end.

        Implementations must update ``resident_bytes`` to reflect the
        bytes held once the piece is loaded.  Exposing the raw bytes
        lets the fast-path document-at-a-time scorer decode straight
        into columnar arrays while reusing the exact refill (and
        therefore I/O) sequence.
        """
        raise NotImplementedError

    def peek(self) -> Optional[Posting]:
        """The next posting without consuming it, or ``None``."""
        while self._index >= len(self._batch):
            if self.exhausted:
                return None
            batch = self._refill()
            if batch is None:
                self.exhausted = True
                self.resident_bytes = 0
                return None
            self._batch = batch
            self._index = 0
        return self._batch[self._index]

    def advance(self) -> Optional[Posting]:
        """Consume and return the next posting, or ``None``."""
        posting = self.peek()
        if posting is not None:
            self._index += 1
        return posting

    def __iter__(self) -> Iterator[Posting]:
        while True:
            posting = self.advance()
            if posting is None:
                return
            yield posting


class WholeRecordStream(PostingStream):
    """A stream over a contiguous record: the whole record is resident.

    This is what term-at-a-time storage gives a document-at-a-time
    reader — correctness without the memory benefit.
    """

    def __init__(self, record: bytes):
        super().__init__()
        self._record: Optional[bytes] = record
        self.resident_bytes = len(record)

    def _refill_raw(self) -> Optional[bytes]:
        if self._record is None:
            return None
        record, self._record = self._record, None
        # The decoded postings stay resident until the stream ends.
        return record


class ChunkedRecordStream(PostingStream):
    """A stream over a linked record: one chunk resident at a time."""

    def __init__(self, chunks: Iterator[bytes]):
        super().__init__()
        self._chunks = iter(chunks)

    def _refill_raw(self) -> Optional[bytes]:
        chunk = next(self._chunks, None)
        if chunk is None:
            return None
        self.resident_bytes = len(chunk)
        return chunk


class FaultTolerantStream(PostingStream):
    """Wraps a stream so storage faults end it early instead of raising.

    The document-at-a-time engine reads linked records chunk by chunk;
    a chunk that stays unreadable after the store's bounded retries
    surfaces as :class:`~repro.errors.BadBlockError` *mid-query*.  This
    wrapper converts that into a clean early end-of-stream, reports the
    failure through ``on_failure``, and leaves every other stream (and
    the documents already scored) intact — the degraded-serving
    contract.  With no fault it is observationally identical to the
    unwrapped stream (same refill sequence, same ``resident_bytes``
    transitions).
    """

    def __init__(
        self,
        inner: PostingStream,
        on_failure: Optional[Callable[[BaseException], None]] = None,
    ):
        super().__init__()
        self._inner = inner
        self._on_failure = on_failure
        self.failed = False
        self.resident_bytes = inner.resident_bytes

    def _refill_raw(self) -> Optional[bytes]:
        if self.failed:
            return None
        try:
            raw = self._inner._refill_raw()
        except BadBlockError as error:
            self.failed = True
            self._inner.resident_bytes = 0
            self.resident_bytes = 0
            if self._on_failure is not None:
                self._on_failure(error)
            return None
        self.resident_bytes = self._inner.resident_bytes
        return raw


class RecordingStream(PostingStream):
    """Tape-records an inner stream's raw refill sequence.

    The serving layer's term cache replays a full drain of a record's
    stream without touching the store again.  The tape holds each
    undecoded piece with the ``resident_bytes`` it left behind, so it
    is epoch-raw (tombstones are filtered after decode, by whoever
    consumes the stream) and decoder-neutral.  The recorder proxies the
    inner stream transparently: refill cadence and ``resident_bytes``
    transitions are untouched.

    ``on_complete(recording)`` fires once, at clean exhaustion; a
    recording cut short by a mid-stream fault never fires it (partial
    tapes must not be cached).
    """

    def __init__(
        self,
        inner: PostingStream,
        on_complete: Callable[["RecordingStream"], None],
    ):
        super().__init__()
        self._inner = inner
        self._on_complete = on_complete
        self.resident_bytes = inner.resident_bytes
        self.initial_resident = inner.resident_bytes
        self.tape: List[Tuple[bytes, int]] = []

    def _refill_raw(self) -> Optional[bytes]:
        raw = self._inner._refill_raw()
        self.resident_bytes = self._inner.resident_bytes
        if raw is None:
            if not getattr(self._inner, "failed", False):
                self._on_complete(self)
            return None
        self.tape.append((raw, self.resident_bytes))
        return raw


class ReplayStream(PostingStream):
    """Replays a :class:`RecordingStream` tape: no I/O.

    Serves the recorded pieces in order and replays the recorded
    ``resident_bytes`` transitions, keeping the memory high-water mark
    of a hit equal to the run that produced the tape.
    """

    def __init__(self, tape: List[Tuple[bytes, int]], initial_resident: int):
        super().__init__()
        self._tape = iter(tape)
        self.resident_bytes = initial_resident

    def _refill_raw(self) -> Optional[bytes]:
        piece = next(self._tape, None)
        if piece is None:
            return None
        raw, self.resident_bytes = piece
        return raw


def merge_streams(
    streams: List[Tuple[int, PostingStream]]
) -> Iterator[Tuple[int, List[Tuple[int, Posting]]]]:
    """Document-at-a-time merge of several term streams.

    ``streams`` pairs an opaque term index with its stream.  Yields
    ``(doc_id, [(term_index, posting), ...])`` in increasing document
    order — all of one document's evidence together, before the next
    document is touched.

    The merge keeps a heap of stream heads — O(log s) per step instead
    of two O(s) scans per document.  Streams are re-peeked (and so
    chunked streams refill) at the start of the round *after* they were
    advanced, exactly when the scan version would have touched them, so
    ``resident_bytes`` snapshots between yields are unchanged.
    """
    heap: List[Tuple[int, int]] = []  # (head doc id, position in streams)
    pending = list(range(len(streams)))
    while True:
        for order in pending:
            head = streams[order][1].peek()
            if head is not None:
                heapq.heappush(heap, (head[0], order))
        pending = []
        if not heap:
            return
        current = heap[0][0]
        evidence = []
        while heap and heap[0][0] == current:
            _doc, order = heapq.heappop(heap)
            term, stream = streams[order]
            evidence.append((term, stream.advance()))
            pending.append(order)
        yield current, evidence
