"""Bulk record encoding: the whole collection in one kernel pass.

``prepare_collection`` historically looped over every term, built
Python posting tuples, and encoded each record one integer at a time —
the "dominated by a sorting problem" indexing cost, paid in
interpreter overhead.  :func:`encode_collection` takes the sorted
(term-rank, doc-id, position) triples and produces every encoded
record with a handful of vectorized passes: gap coding, placing each
term's three columns, and a single v-byte encode of the concatenated
integer stream, sliced back into per-term records by byte offset.

Output records are byte-identical to per-term ``encode_record`` calls
(the concatenation of reference records *is* the encoded global value
stream, cut at record boundaries).  :func:`decode_collection` is the
inverse: every record back to posting triples in one v-byte scan.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import IndexError_
from .codec import _exclusive_cumsum, _positions_from_gaps
from .vbyte import decode_stream, encode_stream


@dataclass
class EncodedCollection:
    """Every term's encoded record, plus the per-term statistics."""

    #: (term id, record bytes), term ids 1..T assigned in rank order.
    records: List[Tuple[int, bytes]]
    ranks: np.ndarray          #: int64, distinct term ranks, ascending
    df: np.ndarray             #: int64, documents per term
    ctf: np.ndarray            #: int64, occurrences per term
    record_sizes: np.ndarray   #: int64, encoded bytes per record
    max_tf: np.ndarray         #: int64, largest within-doc tf per term

    @property
    def uncompressed_bytes(self) -> int:
        """Plain 32-bit size: 4 * (df + ctf + 2 ints) summed over terms."""
        return int(4 * (2 * len(self.records) + 2 * self.df.sum() + self.ctf.sum()))

    @property
    def compressed_bytes(self) -> int:
        return int(self.record_sizes.sum())


def encode_collection(
    ranks: np.ndarray, doc_ids: np.ndarray, positions: np.ndarray
) -> EncodedCollection:
    """Encode one record per distinct rank from sorted posting triples.

    ``ranks``/``doc_ids``/``positions`` must already be sorted
    lexicographically by (rank, doc id, position) — the order the
    indexing sort produces.
    """
    total = int(ranks.size)
    if total == 0:
        raise IndexError_("cannot encode an empty collection")
    ranks = np.ascontiguousarray(ranks, dtype=np.int64)
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)

    # ranks are pre-sorted, so term boundaries are adjacent differences
    # (np.unique would pay for a redundant sort).
    new_term = np.empty(total, dtype=bool)
    new_term[0] = True
    new_term[1:] = ranks[1:] != ranks[:-1]
    term_starts = np.nonzero(new_term)[0]
    distinct = ranks[term_starts]
    term_count = int(distinct.size)
    term_ends = np.empty(term_count, dtype=np.int64)
    term_ends[:-1] = term_starts[1:]
    term_ends[-1] = total
    ctf = term_ends - term_starts

    # Posting entries: one per (term, document) pair.
    new_entry = np.empty(total, dtype=bool)
    new_entry[0] = True
    new_entry[1:] = (ranks[1:] != ranks[:-1]) | (doc_ids[1:] != doc_ids[:-1])
    entry_starts = np.nonzero(new_entry)[0]
    entries = int(entry_starts.size)
    tf = np.empty(entries, dtype=np.int64)
    tf[:-1] = entry_starts[1:] - entry_starts[:-1]
    tf[-1] = total - entry_starts[-1]

    # Each term's first entry, and entries per term (df).
    first_entry = np.searchsorted(entry_starts, term_starts)
    df = np.empty(term_count, dtype=np.int64)
    df[:-1] = first_entry[1:] - first_entry[:-1]
    df[-1] = entries - first_entry[-1]

    # Delta coding: document gaps within a term (first absolute),
    # position gaps within a document (first absolute).
    entry_docs = doc_ids[entry_starts]
    dgaps = np.empty(entries, dtype=np.int64)
    dgaps[0] = entry_docs[0]
    dgaps[1:] = entry_docs[1:] - entry_docs[:-1]
    dgaps[first_entry] = entry_docs[first_entry]
    pgaps = np.empty(total, dtype=np.int64)
    pgaps[0] = positions[0]
    pgaps[1:] = positions[1:] - positions[:-1]
    pgaps[entry_starts] = positions[entry_starts]

    # Lay out df ctf dgap*df tf*df pgap*ctf per term in one value stream.
    values_per_term = 2 + 2 * df + ctf
    term_val_starts = np.empty(term_count, dtype=np.int64)
    term_val_starts[0] = 0
    np.cumsum(values_per_term[:-1], out=term_val_starts[1:])
    stream_len = int(term_val_starts[-1] + values_per_term[-1])
    values = np.empty(stream_len, dtype=np.int64)
    values[term_val_starts] = df
    values[term_val_starts + 1] = ctf
    # Each column is a contiguous run: entry i of a term sits i values
    # past its column's start, and so does the term's j-th position gap.
    doc_slots = (np.repeat(term_val_starts + 2 - first_entry, df)
                 + np.arange(entries, dtype=np.int64))
    values[doc_slots] = dgaps
    values[doc_slots + np.repeat(df, df)] = tf
    gap_slots = (np.repeat(term_val_starts + 2 + 2 * df - term_starts, ctf)
                 + np.arange(total, dtype=np.int64))
    values[gap_slots] = pgaps

    buffer, lengths = encode_stream(values)
    byte_ends = np.cumsum(lengths)
    term_byte_starts = byte_ends[term_val_starts] - lengths[term_val_starts]
    term_byte_ends = np.empty(term_count, dtype=np.int64)
    term_byte_ends[:-1] = term_byte_starts[1:]
    term_byte_ends[-1] = int(byte_ends[-1])

    starts_list = term_byte_starts.tolist()
    ends_list = term_byte_ends.tolist()
    records = [
        (i + 1, buffer[starts_list[i]:ends_list[i]]) for i in range(term_count)
    ]
    # Pruning bound metadata: the largest per-document frequency each
    # term reaches, segment-maxed over its entry range in one pass.
    max_tf = np.maximum.reduceat(tf, first_entry)
    return EncodedCollection(
        records=records,
        ranks=distinct,
        df=df,
        ctf=ctf,
        record_sizes=term_byte_ends - term_byte_starts,
        max_tf=max_tf,
    )


def decode_collection(
    records: Sequence[Tuple[int, bytes]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(term id, doc id, position) of every posting in ``records``.

    Postings come out record by record, each record's in (doc id,
    position) order, so ``encode_collection`` of the triples (or of any
    masked subset) gives back records for the same terms.
    """
    if not records:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    term_ids = np.fromiter((t for t, _r in records), dtype=np.int64, count=len(records))
    sizes = np.fromiter((len(r) for _t, r in records), dtype=np.int64, count=len(records))
    data = b"".join(r for _t, r in records)
    values, clean = decode_stream(data)
    # Record i's integers start after the integers ending before its
    # first byte: count v-byte terminators.
    terminators = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) < 0x80)
    starts = np.searchsorted(terminators, _exclusive_cumsum(sizes))
    values = values.astype(np.int64)
    df = values[starts]
    ctf = values[np.minimum(starts + 1, values.size - 1)]
    counts = np.diff(np.append(starts, values.size))
    if not clean or (counts != 2 + 2 * df + ctf).any():
        raise IndexError_("malformed postings record in collection decode")
    entries = int(df.sum())
    doc_slots = (np.repeat(starts + 2 - _exclusive_cumsum(df), df)
                 + np.arange(entries, dtype=np.int64))
    tf = values[doc_slots + np.repeat(df, df)]
    # Document gaps restart (absolute) at each record, position gaps at
    # each document: both are restarted running sums.
    doc_ids = _positions_from_gaps(values[doc_slots], df, _exclusive_cumsum(df))
    total = int(ctf.sum())
    gap_slots = (np.repeat(starts + 2 + 2 * df - _exclusive_cumsum(ctf), ctf)
                 + np.arange(total, dtype=np.int64))
    positions = _positions_from_gaps(values[gap_slots], tf, _exclusive_cumsum(tf))
    return np.repeat(term_ids, ctf), np.repeat(doc_ids, tf), positions
