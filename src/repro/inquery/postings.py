"""Inverted list records and their compressed encoding.

"There is one record per term.  A record has a header containing summary
statistics about the term, followed by a listing of the documents, and
the locations within each document, where the term occurs.  The record is
stored as a vector of integers in a compressed format.  The average
compression rate for the four collections ... is about 60%."

A record is encoded as variable-byte integers, column by column::

    df  ctf  gap(doc)*df  tf*df  gap(pos)*ctf

where document ids are delta-coded across the record and positions
within each document (the first of each document absolute).  A term
occurring once in one document encodes in 5-8 bytes, which is what puts
roughly half of a Zipf vocabulary's records at or under the paper's
12-byte small object threshold.

The integers are INQUERY's, and so is every record's byte length: its
record interleaves the same values per document, ``df ctf (gap(doc) tf
gap(pos)*tf)*df``, and v-byte lengths do not depend on order.  Only the
order changed, so that a reader can take the document and tf columns
without walking every document's positions.  The paper's approach is to
replace the subsystem that manages the records "without changing the
format of the records themselves"; the sizes that drive pool choice,
segment packing and every simulated charge are unchanged, which is why
both storage backends share this module.  Platters written in the
interleaved order are rewritten once when they are opened
(:mod:`repro.inquery.interleaved`).
"""

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexError_
from ..fastpath import codec as _codec, state as _fastpath
from ..fastpath.vbyte import decode_at
from ..lru import WeightedLRU

#: One posting: (document id, sorted within-document positions).
Posting = Tuple[int, Tuple[int, ...]]

# Records below these cutovers stay on the scalar codec: a vector call
# costs a fixed few dozen numpy dispatches, which the loop beats until
# records reach a few hundred bytes.  Each constant is the measured
# crossover (DESIGN.md §14 has the table).  Both codecs are
# byte-identical, so a cutover is purely a real-time tuning knob.
_FAST_DECODE_MIN_BYTES = 384      # posting-list decode, by record bytes
_FAST_ENCODE_MIN_POSTINGS = 256   # encode, by postings
# Column bounds of an append, by documents.  Only an append-bounds memo
# miss walks the columns at all (``_try_append_records``), so this
# cut-over applies to a record's first append in a while, not to every
# append of a term that grows batch after batch.
_FAST_BOUNDS_MIN_DF = 64

#: Budget of a store's append-bounds memo (:func:`append_bounds_memo`),
#: in bytes: each entry weighs its record's length plus
#: ``_APPEND_BOUNDS_ENTRY`` for the entry itself.  A constant.
APPEND_BOUNDS_BYTES = 1 << 20
_APPEND_BOUNDS_ENTRY = 128


def vbyte_encode(value: int, out: bytearray) -> None:
    """Append one unsigned integer in 7-bit variable-byte form."""
    if value < 0:
        raise IndexError_(f"cannot v-byte encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def vbyte_decode(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one integer at ``pos``; returns (value, next position)."""
    value = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise IndexError_("truncated v-byte integer") from None
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def vbyte_length(value: int) -> int:
    """Encoded size of one integer, in bytes."""
    length = 1
    while value >= 0x80:
        value >>= 7
        length += 1
    return length


@dataclass(frozen=True)
class RecordHeader:
    """Summary statistics stored at the front of every record."""

    df: int   #: document frequency (number of postings)
    ctf: int  #: collection term frequency (total occurrences)


def encode_record(postings: Sequence[Posting]) -> bytes:
    """Serialize postings (sorted by document id) into a record.

    Dispatches to the vectorized codec for large records when the fast
    path is enabled; both codecs emit identical bytes and raise
    identical errors.

    Raises
    ------
    IndexError_
        If document ids are not strictly increasing, a posting has no
        positions, or positions are not strictly increasing.
    """
    if _fastpath.ENABLED and len(postings) >= _FAST_ENCODE_MIN_POSTINGS:
        return _codec.encode_record_fast(postings)
    return _encode_record_py(postings)


def _encode_record_py(postings: Sequence[Posting]) -> bytes:
    """The scalar reference encoder."""
    out = bytearray()
    ctf = sum(len(positions) for _, positions in postings)
    vbyte_encode(len(postings), out)
    vbyte_encode(ctf, out)
    for column in _encode_columns(postings, -1):
        out += column
    return bytes(out)


def _encode_columns(
    postings: Sequence[Posting], last_doc: int
) -> Tuple[bytearray, bytearray, bytearray]:
    """Delta-encode postings after ``last_doc`` as the record's three
    columns: document gaps, tfs, position gaps (no header)."""
    docs, tfs, gaps = bytearray(), bytearray(), bytearray()
    for doc_id, positions in postings:
        if doc_id <= last_doc:
            raise IndexError_(
                f"postings out of order: doc {doc_id} after {last_doc}"
            )
        if not positions:
            raise IndexError_(f"posting for doc {doc_id} has no positions")
        vbyte_encode(doc_id - last_doc if last_doc >= 0 else doc_id, docs)
        vbyte_encode(len(positions), tfs)
        last_pos = -1
        for position in positions:
            if position <= last_pos:
                raise IndexError_(
                    f"positions out of order in doc {doc_id}: "
                    f"{position} after {last_pos}"
                )
            vbyte_encode(position - last_pos if last_pos >= 0 else position, gaps)
            last_pos = position
        last_doc = doc_id
    return docs, tfs, gaps


def decode_header(record: bytes) -> RecordHeader:
    """Read only the summary statistics of a record."""
    df, pos = vbyte_decode(record, 0)
    ctf, _pos = vbyte_decode(record, pos)
    return RecordHeader(df=df, ctf=ctf)


def decode_record(record: bytes) -> List[Posting]:
    """Deserialize a full record back into postings.

    Dispatches to the vectorized codec for large records when the fast
    path is enabled; both decoders return identical posting lists.
    """
    if _fastpath.ENABLED and len(record) >= _FAST_DECODE_MIN_BYTES:
        return _codec.decode_record_fast(record)
    return _decode_record_py(record)


def live_postings(postings: List[Posting], dead) -> List[Posting]:
    """``postings`` without the tombstoned documents in ``dead``."""
    if not dead:
        return postings
    return [(d, p) for d, p in postings if d not in dead]


def _decode_record_py(record: bytes) -> List[Posting]:
    """The scalar reference decoder."""
    df, pos = vbyte_decode(record, 0)
    _ctf, pos = vbyte_decode(record, pos)
    doc_ids = []
    doc_id = 0
    for _ in range(df):
        gap, pos = vbyte_decode(record, pos)
        doc_id += gap
        doc_ids.append(doc_id)
    tfs = []
    for _ in range(df):
        tf, pos = vbyte_decode(record, pos)
        tfs.append(tf)
    postings: List[Posting] = []
    for doc_id, tf in zip(doc_ids, tfs):
        positions = []
        position = 0
        for _ in range(tf):
            pgap, pos = vbyte_decode(record, pos)
            position += pgap
            positions.append(position)
        postings.append((doc_id, tuple(positions)))
    return postings


def merge_records(
    base: bytes, extra: Sequence[Posting], bounds: Optional[WeightedLRU] = None
) -> bytes:
    """Merge new postings into an existing record.

    New postings for documents already present replace the old posting
    (re-indexed document); others are inserted in document-id order.
    This is the record-level half of incremental update — the operation
    the paper says is awkward for large lists stored contiguously, and
    cheap for linked objects.

    When every new document id follows the record's last (the common
    append-as-documents-arrive case), the existing columns are copied
    as bytes and only the new postings are encoded onto the end of each,
    instead of re-encoding the record.  ``bounds`` is the store's
    append-bounds memo (:func:`append_bounds_memo`), if it has one.
    """
    extra = [(doc, tuple(positions)) for doc, positions in extra]
    appended = _try_append_records(base, extra, bounds)
    if appended is not None:
        return appended
    merged = {doc: positions for doc, positions in decode_record(base)}
    for doc, positions in extra:
        merged[doc] = positions
    return encode_record(sorted(merged.items()))


def append_bounds_memo() -> WeightedLRU:
    """An empty append-bounds memo: record bytes -> ``(header_end,
    docs_end, tfs_end, last_doc)``, what :func:`_column_bounds` returns.

    Keyed by the whole record, an entry is a pure function of its key
    and can never be stale.  An append fills it arithmetically from its
    own output and takes (and drops) the entry of the record it grows,
    so a term that grows batch after batch never walks its columns
    again.  Bounded by :data:`APPEND_BOUNDS_BYTES`, evicting the least
    recently appended record first.
    """
    return WeightedLRU(APPEND_BOUNDS_BYTES)


def _try_append_records(
    base: bytes, extra: Sequence[Posting], bounds: Optional[WeightedLRU] = None
) -> Optional[bytes]:
    """Append-only fast path for :func:`merge_records`.

    Returns ``None`` whenever the slow path is required — new ids not
    strictly beyond the base record, or input that should raise the
    canonical validation errors from :func:`encode_record`.
    """
    if not extra:
        return None
    last_new = None
    for doc_id, positions in extra:
        if last_new is not None and doc_id <= last_new:
            return None  # unsorted or replacing: full merge handles it
        if not positions or any(
            b <= a for a, b in zip(positions, positions[1:])
        ) or positions[0] < 0:
            return None  # malformed: let encode_record raise
        last_new = doc_id
    header = decode_header(base)
    if header.df == 0:
        return None
    if bounds is not None and base in bounds:
        known = bounds.pop(base)
    else:
        known = _column_bounds(base, header.df)
    header_end, docs_end, tfs_end, last_doc = known
    if extra[0][0] <= last_doc:
        return None
    docs, tfs, gaps = _encode_columns(extra, last_doc)
    out = bytearray()
    vbyte_encode(header.df + len(extra), out)
    vbyte_encode(header.ctf + sum(len(positions) for _d, positions in extra), out)
    new_header_end = len(out)
    out += base[header_end:docs_end]
    out += docs
    new_docs_end = len(out)
    out += base[docs_end:tfs_end]
    out += tfs
    new_tfs_end = len(out)
    out += base[tfs_end:]
    out += gaps
    record = bytes(out)
    if bounds is not None:
        bounds.put(
            record, (new_header_end, new_docs_end, new_tfs_end, last_new),
            len(record) + _APPEND_BOUNDS_ENTRY,
        )
    return record


def _column_bounds(record: bytes, df: int) -> Tuple[int, int, int, int]:
    """Where a record's columns end, and its last document id.

    Returns the byte offsets that end the header, the document-gap
    column and the tf column, plus the sum of the document gaps.  Only
    the two per-document columns are read; positions are never walked.
    """
    if _fastpath.ENABLED and df >= _FAST_BOUNDS_MIN_DF:
        return _codec.column_bounds(record, df)
    return _column_bounds_py(record, df)


def _column_bounds_py(record: bytes, df: int) -> Tuple[int, int, int, int]:
    """The scalar :func:`_column_bounds`: one walk over two columns."""
    _df, pos = vbyte_decode(record, 0)
    _ctf, header_end = vbyte_decode(record, pos)
    pos = header_end
    last_doc = 0
    for _ in range(df):
        gap, pos = vbyte_decode(record, pos)
        last_doc += gap
    docs_end = pos
    for _ in range(df):
        _tf, pos = vbyte_decode(record, pos)
    return header_end, docs_end, pos, last_doc


# -- splicing column bytes -----------------------------------------------------
#
# A chain operation — split a record into chunks, join chunks into a
# record, drop documents — needs no posting list.  Each is a splice of
# document ranges: a range's first document gap is re-encoded (against
# the previous range's last document, or absolute), the header is
# re-encoded, and the rest — doc gaps, tfs, position runs — is copied,
# since a tf does not depend on its neighbours and each document's
# position run starts absolute.  For input that is exactly what
# ``encode_record`` writes, the output is ``encode_record`` of the
# spliced postings byte for byte.  The store only splices records this
# program wrote (doc ids persist as u32, Mneme segments are
# CRC-checked), so any other input raises.


def _columns(record: bytes):
    """A record's integer layout, read off its bytes.

    Returns ``(ends, doc_ids, tf, pos_first)``: the byte index of every
    integer's last byte (integer ``k`` starts at ``ends[k-1] + 1``), the
    absolute document ids, the tfs, and each document's first position
    as an integer index into the position column (``df + 1`` entries,
    the last ``ctf``).

    Raises
    ------
    IndexError_
        If the record is not exactly ``encode_record`` of its decoded
        postings (empty, truncated or trailing bytes, a terminator count
        other than ``2 + 2 df + ctf``, an over-long v-byte, a zero tf,
        tfs that do not sum to ``ctf``, a repeated document or
        position), or holds document ids of 63 bits or more.
    """
    raw = np.frombuffer(record, dtype=np.uint8)
    last = raw < 0x80
    ends = np.flatnonzero(last)
    if ends.size < 2 or not last[-1]:
        raise IndexError_("record is empty or ends inside a v-byte integer")
    df, pos = vbyte_decode(record, 0)
    ctf, _pos = vbyte_decode(record, pos)
    if df == 0 or ends.size != 2 + 2 * df + ctf:
        raise IndexError_(
            f"record holds {ends.size} integers, not the {2 + 2 * df + ctf} "
            f"its header (df {df}, ctf {ctf}) names"
        )
    # Canonical v-bytes: no integer ends in a zero group after a
    # continuation byte.
    if (raw[1:][~last[:-1]] == 0).any():
        raise IndexError_("record holds an over-long v-byte integer")
    values = decode_at(raw, ends[2:2 + 2 * df], int(ends[1]) + 1)
    gaps, tf = values[:df], values[df:]
    if (
        (gaps[1:] == 0).any()
        or int(gaps.max()) >= (1 << 63) // df
        or tf.min() < 1
        or tf.max() > ctf
        or int(tf.sum()) != ctf
    ):
        raise IndexError_(
            "record holds a repeated or out-of-range document id, or tfs "
            f"that are not positive and summing to its ctf {ctf}"
        )
    tf = tf.astype(np.int64)
    pos_first = np.zeros(df + 1, dtype=np.int64)
    np.cumsum(tf, out=pos_first[1:])
    # A zero position gap is a one-byte 0; only a document's first
    # (absolute) position may be zero.
    zero = raw[ends[2 + 2 * df:]] == 0
    zero[pos_first[:-1]] = False
    if zero.any():
        raise IndexError_("record holds a repeated position")
    return ends, np.cumsum(gaps.astype(np.int64)), tf, pos_first


def _splice(pieces) -> bytes:
    """One record from document ranges of column-read records.

    ``pieces`` are ``(record, columns, first, stop)``: documents
    ``first`` to ``stop - 1`` of ``record``, whose :func:`_columns` is
    ``columns``.

    Raises
    ------
    IndexError_
        If a piece does not start after the previous piece's last
        document.
    """
    docs, tfs, positions = bytearray(), [], []
    df = ctf = 0
    last_doc = -1
    for record, (ends, doc_ids, _tf, pos_first), first, stop in pieces:
        first_doc = int(doc_ids[first])
        if first_doc <= last_doc:
            raise IndexError_(
                f"postings out of order: doc {first_doc} after {last_doc}"
            )
        size = doc_ids.size
        p_first, p_stop = int(pos_first[first]), int(pos_first[stop])
        # Integer k starts at byte ends[k - 1] + 1; document i's gap is
        # integer 2 + i, its tf 2 + df + i, position j 2 + 2 df + j.
        vbyte_encode(first_doc - last_doc if last_doc >= 0 else first_doc, docs)
        docs += record[ends[first + 2] + 1:ends[stop + 1] + 1]
        tfs.append(record[ends[1 + size + first] + 1:ends[1 + size + stop] + 1])
        positions.append(
            record[ends[1 + 2 * size + p_first] + 1:ends[1 + 2 * size + p_stop] + 1]
        )
        df += stop - first
        ctf += p_stop - p_first
        last_doc = int(doc_ids[stop - 1])
    head = bytearray()
    vbyte_encode(df, head)
    vbyte_encode(ctf, head)
    return b"".join([head, docs, *tfs, *positions])


def _vbyte_lengths(values: np.ndarray) -> np.ndarray:
    """Vector :func:`vbyte_length` of non-negative int64 values."""
    lengths = np.ones(values.size, dtype=np.int64)
    for k in range(1, 9):
        lengths += values >= 1 << (7 * k)
    return lengths


def split_columns(
    record: bytes, target_bytes: int
) -> Tuple[List[bytes], List[int], List[int]]:
    """Split a record into self-contained chunks of about ``target_bytes``.

    Returns the chunk records and each chunk's last document id and
    max tf.  Every chunk is a mini-record with an absolute first
    document id, so a reader can decode any chunk without its
    neighbours — the property that makes linked-object storage of
    large inverted lists streamable for document-at-a-time evaluation.
    A chunk takes documents while a 4-byte header estimate plus, per
    document, the v-byte lengths of its id and tf and two bytes per
    position fit in the target, and always takes at least one.
    """
    if target_bytes < 16:
        raise IndexError_("chunk target too small to hold a posting")
    columns = _columns(record)
    _ends, doc_ids, tf, _pos_first = columns
    df = doc_ids.size
    used = np.zeros(df + 1, dtype=np.int64)
    np.cumsum(_vbyte_lengths(doc_ids) + _vbyte_lengths(tf) + 2 * tf, out=used[1:])
    bounds = [0]
    while bounds[-1] < df:
        first = bounds[-1]
        stop = int(np.searchsorted(used, used[first] + target_bytes - 4, "right")) - 1
        bounds.append(max(stop, first + 1))
    firsts = np.array(bounds[:-1])
    return (
        [_splice([(record, columns, a, b)]) for a, b in zip(bounds, bounds[1:])],
        doc_ids[np.array(bounds[1:]) - 1].tolist(),
        np.maximum.reduceat(tf, firsts).tolist(),
    )


def join_columns(chunks: Sequence[bytes]) -> bytes:
    """Reassemble chunk records into one record: the splice inverse of
    :func:`split_columns`."""
    return _splice([
        (chunk, columns, 0, columns[1].size)
        for chunk, columns in zip(chunks, map(_columns, chunks))
    ])


def drop_documents(
    record: bytes, doomed: Iterable[int]
) -> Optional[Tuple[bytes, int]]:
    """Remove every posting for a document in ``doomed``.

    Returns ``None`` when the record holds none of them, else the kept
    record and the kept postings' max tf (0 when none is kept).  The
    kept documents' runs are spliced together.
    """
    hits = _doomed_indices(record, set(doomed))
    if not hits:
        return None
    columns = _columns(record)
    _ends, doc_ids, tf, _pos_first = columns
    kept_tf = np.delete(tf, hits)
    if not kept_tf.size:
        return encode_record([]), 0
    runs = zip([0] + [h + 1 for h in hits], hits + [doc_ids.size])
    kept = _splice([(record, columns, a, b) for a, b in runs if a < b])
    return kept, int(kept_tf.max())


def _doomed_indices(record: bytes, doomed: set) -> List[int]:
    """Indices of ``record``'s documents that are in ``doomed``.

    A walk of the doc-gap column that stops past the largest doomed id:
    a compaction asks this of every record, and most hold a handful of
    documents, none of them doomed.
    """
    hits: List[int] = []
    if not doomed:
        return hits
    last = max(doomed)
    df, pos = vbyte_decode(record, 0)
    _ctf, pos = vbyte_decode(record, pos)
    doc_id = 0
    for index in range(df):
        gap, pos = vbyte_decode(record, pos)
        doc_id += gap
        if doc_id in doomed:
            hits.append(index)
        if doc_id >= last:
            break
    return hits


def column_stats(record: bytes) -> Tuple[int, int]:
    """A chunk record's last document id and max tf, read off its doc
    and tf columns."""
    _ends, doc_ids, tf, _pos_first = _columns(record)
    return int(doc_ids[-1]), int(tf.max())


def uncompressed_size(postings: Sequence[Posting]) -> int:
    """Bytes the record would occupy as plain 32-bit integers.

    Used to report the compression rate (the paper's ~60%).
    """
    ints = 2  # df, ctf
    for _doc, positions in postings:
        ints += 2 + len(positions)  # doc id, tf, positions
    return 4 * ints
