"""Max-belief bound metadata for dynamic pruning.

The INQUERY belief of a term in a document is

    b = 0.4 + 0.6 * tf_w * idf,    tf_w = tf / (tf + 0.5 + 1.5 * dl / avg)

Every factor of ``tf_w``'s denominator beyond ``tf + 0.5`` is
non-negative, so for any document length

    tf_w  <=  tf / (tf + 0.5)  <=  max_tf / (max_tf + 0.5)

where ``max_tf`` is the largest within-document frequency the record (or
record chunk) stores.  :func:`belief_bound` evaluates the belief
expression with that frequency ceiling — an *admissible* upper bound on
the belief any document in the record can achieve.  The inequality chain
holds in IEEE-754 double arithmetic, not just over the reals: each step
replaces one operand of a correctly-rounded operation with something no
smaller (``tf + 0.5`` is exact for realistic ``tf``; rounding is
monotone; the remaining ops multiply/add non-negative values), so the
computed bound can never fall below the computed belief.  That is what
lets the pruning engine skip documents while staying bit-identical to
exhaustive evaluation.

Deliberately *not* in the bound: document length.  A length-aware bound
would be tighter but would go stale when documents are added or removed;
``max_tf`` only ever needs a max-merge on insert and a recount on
delete.

Storage layout
--------------
* Per record: ``max_tf`` lives in the term's dictionary entry
  (v2 format, :mod:`repro.inquery.dictionary`).
* Per block: linked (chunked) records get a compact *sidecar* object —
  :func:`encode_chunk_bounds` — recording each chunk's object id, last
  document id, and chunk-local ``max_tf``.  The sidecar is what lets the
  engine fetch only the chunks that can still matter: a chunk whose
  document range holds no candidate, or whose chunk-level bound cannot
  beat the current threshold, is never read from the store.
"""

import bisect
from typing import Callable, List, Optional, Sequence, Tuple

from .network import DEFAULT_BELIEF
from .postings import vbyte_decode, vbyte_encode


def belief_bound(max_tf: int, idf: float) -> float:
    """Admissible ceiling on the term belief of any document in a record.

    Mirrors the engines' belief expression with ``tf_w`` replaced by its
    ceiling; every operation is monotone under IEEE-754 rounding, so the
    result dominates every belief the record can produce.
    """
    tf_w = max_tf / (max_tf + 0.5)
    return DEFAULT_BELIEF + (1.0 - DEFAULT_BELIEF) * tf_w * idf


# -- sidecar codec -------------------------------------------------------------


def encode_chunk_bounds(
    oids: Sequence[int], last_docs: Sequence[int], max_tfs: Sequence[int]
) -> bytes:
    """Serialize per-chunk bound metadata for one linked record.

    Layout (all v-byte): chunk count, then per chunk its object id
    (absolute — append/update cycles do not keep oids monotone), the
    last document id as a gap off the previous chunk's (documents are
    globally sorted across the chain, first absolute), and the
    chunk-local ``max_tf``.
    """
    if not (len(oids) == len(last_docs) == len(max_tfs)):
        raise ValueError("chunk bound columns must have equal length")
    out = bytearray()
    vbyte_encode(len(oids), out)
    previous = 0
    for oid, last_doc, max_tf in zip(oids, last_docs, max_tfs):
        vbyte_encode(oid, out)
        vbyte_encode(last_doc - previous, out)
        vbyte_encode(max_tf, out)
        previous = last_doc
    return bytes(out)


def decode_chunk_bounds(data: bytes) -> Tuple[List[int], List[int], List[int]]:
    """Inverse of :func:`encode_chunk_bounds`: (oids, last_docs, max_tfs)."""
    count, pos = vbyte_decode(data, 0)
    oids: List[int] = []
    last_docs: List[int] = []
    max_tfs: List[int] = []
    previous = 0
    for _ in range(count):
        oid, pos = vbyte_decode(data, pos)
        gap, pos = vbyte_decode(data, pos)
        max_tf, pos = vbyte_decode(data, pos)
        previous += gap
        oids.append(oid)
        last_docs.append(previous)
        max_tfs.append(max_tf)
    return oids, last_docs, max_tfs


# -- block-structured record access --------------------------------------------


class PrunableSource:
    """One term's record as independently fetchable, bounded blocks.

    The pruning engine's storage interface: block ``i`` covers documents
    in ``(last_docs[i-1], last_docs[i]]`` and none of its beliefs can
    exceed ``belief_bound(max_tfs[i], idf)``.  ``fetch_block`` returns
    the raw record piece (engines decode on their own path and cache);
    a block that is never fetched is never read from the store — that is
    the honest-I/O contract, and ``blocks_fetched`` is how the engine
    counts what it skipped.

    A whole (unchunked) record is a single block whose ``last_doc`` is
    unknown (``None``): it cannot be range-skipped, only bound-skipped,
    and fetching it transfers the entire record — exactly what the
    storage can actually do.
    """

    def __init__(
        self,
        fetchers: Sequence[Callable[[], bytes]],
        last_docs: Sequence[Optional[int]],
        max_tfs: Sequence[int],
    ):
        if not (len(fetchers) == len(last_docs) == len(max_tfs)):
            raise ValueError("block columns must have equal length")
        self._fetchers = list(fetchers)
        self.last_docs = list(last_docs)
        self.max_tfs = list(max_tfs)
        self.blocks_fetched = 0
        self._fetched = [False] * len(self._fetchers)

    @property
    def n_blocks(self) -> int:
        return len(self._fetchers)

    def fetch_block(self, index: int) -> bytes:
        """Raw bytes of block ``index`` (reads the store on first use)."""
        self.mark_fetched(index)
        return self._fetchers[index]()

    def mark_fetched(self, index: int) -> None:
        """Account block ``index`` as fetched without reading the store.

        The serving layer's term cache replays blocks whose raw bytes it
        already holds; those blocks were *not* skipped by pruning, so
        ``blocks_fetched`` must count them exactly as a real fetch would
        — only the store read and its decode charge are elided.
        """
        if not self._fetched[index]:
            self._fetched[index] = True
            self.blocks_fetched += 1

    def block_of_doc(self, doc_id: int) -> int:
        """Index of the block whose document range covers ``doc_id``.

        With a single unknown-range block that block is the answer by
        construction; otherwise binary search over the last-doc fence.
        """
        if len(self.last_docs) == 1:
            return 0
        return bisect.bisect_left(self.last_docs, doc_id)
