"""Vectorized postings-record codec.

Decodes and encodes the record format of :mod:`repro.inquery.postings`
(``df ctf gap(doc)*df tf*df gap(pos)*ctf``) with bulk v-byte kernels
instead of per-integer Python loops.  The integers and the byte length
of every record are INQUERY's; only their order differs from its
interleaved ``df ctf (gap(doc) tf gap(pos)*tf)*df``, and that order is
what lets a decode be one bulk scan plus three slices: each column sits
at a fixed integer offset once ``df`` is known.

The contract is strict byte/structure equality with the reference
codec: :func:`encode_record_fast` produces the exact bytes
``encode_record`` would, and :func:`decode_record_fast` the exact
posting lists ``decode_record`` would — including raising the same
:class:`~repro.errors.IndexError_` on malformed input.  Anything the
vector kernels cannot express (values beyond 63 bits, malformed
structure) falls back to the scalar reference implementation, which
either handles it or raises the canonical error.
"""

from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexError_
from ..lru import WeightedLRU
from .vbyte import decode_stream, encode_stream

#: One posting: (document id, sorted within-document positions).
Posting = Tuple[int, Tuple[int, ...]]


class RecordArrays:
    """A decoded record in columnar form.

    ``positions`` holds every within-document position, flattened;
    document ``i`` owns the slice ``positions[pos_starts[i]:
    pos_starts[i] + tf[i]]``.

    Flat ``#sum``/``#wsum`` evaluation reads only ``doc_ids`` and
    ``tf``, so :func:`decode_record_arrays` defers the position columns:
    it hands over the record's position-gap column and it is turned
    into ``positions``/``pos_starts`` on first access.

    Every column is read-only: a decode may be shared by every query an
    engine serves (:class:`DecodeCache`), so a kernel that wrote into
    one would change the next query's ranking — it raises instead.
    """

    __slots__ = ("doc_ids", "tf", "_positions", "_pos_starts", "_gaps", "_ctf")

    def __init__(self, doc_ids, tf, positions, pos_starts):
        self.doc_ids = _frozen(doc_ids)    #: int64, strictly increasing
        self.tf = _frozen(tf)              #: int64, per-document term frequency
        self._positions = _frozen(positions)    #: int64, flattened position lists
        self._pos_starts = _frozen(pos_starts)  #: int64, exclusive prefix sum of ``tf``
        self._gaps = None
        self._ctf = int(positions.size)

    @classmethod
    def deferred(cls, doc_ids, tf, gaps) -> "RecordArrays":
        """A record whose positions are still ``gaps``, the record's
        position-gap column (each document's run starts absolute)."""
        arrays = cls.__new__(cls)
        arrays.doc_ids = _frozen(doc_ids)
        arrays.tf = _frozen(tf)
        arrays._positions = arrays._pos_starts = None
        arrays._gaps = _frozen(gaps)
        arrays._ctf = int(gaps.size)
        return arrays

    @property
    def pos_starts(self) -> np.ndarray:
        if self._pos_starts is None:
            self._pos_starts = _frozen(_exclusive_cumsum(self.tf))
        return self._pos_starts

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            self._positions = _frozen(_positions_from_gaps(
                self._gaps, self.tf, self.pos_starts
            ))
            self._gaps = None
        return self._positions

    @property
    def df(self) -> int:
        return int(self.doc_ids.size)

    @property
    def ctf(self) -> int:
        return self._ctf

    def to_postings(self) -> List[Posting]:
        """The reference representation (list of id/positions tuples)."""
        docs = self.doc_ids.tolist()
        tfs = self.tf.tolist()
        flat = self.positions.tolist()
        out: List[Posting] = []
        start = 0
        for doc_id, tf in zip(docs, tfs):
            end = start + tf
            out.append((doc_id, tuple(flat[start:end])))
            start = end
        return out


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _exclusive_cumsum(tf: np.ndarray) -> np.ndarray:
    starts = np.empty(tf.size, dtype=np.int64)
    if tf.size:
        starts[0] = 0
        np.cumsum(tf[:-1], out=starts[1:])
    return starts


def _positions_from_gaps(gaps, tf, pos_starts) -> np.ndarray:
    """Flattened positions: a running sum of the gap column, restarted
    at each document's first (absolute) position."""
    if not gaps.size:
        return np.empty(0, dtype=np.int64)
    running = np.cumsum(gaps)
    bases = np.zeros(tf.size, dtype=np.int64)
    bases[1:] = running[pos_starts[1:] - 1]
    return running - np.repeat(bases, tf)


def dead_array(dead) -> np.ndarray:
    """A tombstone set as the probe kernel takes it: sorted, int64."""
    return _frozen(np.fromiter(sorted(dead), dtype=np.int64, count=len(dead)))


def find_sorted(column: np.ndarray, probes: np.ndarray):
    """Where each of ``probes`` sits in the strictly increasing
    ``column`` (``searchsorted``), and whether it is there."""
    at = column.searchsorted(probes)
    found = at < column.size
    found[found] = column[at[found]] == probes[found]
    return at, found


def _live_mask(doc_ids: np.ndarray, dead_sorted: np.ndarray) -> Optional[np.ndarray]:
    """The keep-mask of ``doc_ids`` against ``dead_sorted``, or ``None``
    when no dead document is in the column.

    Two binary searches bound the tombstones inside the column's id
    range and one ``searchsorted`` places just those, so a read pays
    O(log dead + k log df) for the k tombstones in range; only a hit
    costs O(df), for the mask.
    """
    if not doc_ids.size or not dead_sorted.size:
        return None
    lo = dead_sorted.searchsorted(doc_ids[0])
    hi = dead_sorted.searchsorted(doc_ids[-1], "right")
    if lo == hi:
        return None
    at, found = find_sorted(doc_ids, dead_sorted[lo:hi])
    if not found.any():
        return None
    keep = np.ones(doc_ids.size, dtype=bool)
    keep[at[found]] = False
    return keep


def filter_record_arrays(arrays: "RecordArrays", dead_sorted: np.ndarray) -> "RecordArrays":
    """Drop the documents in ``dead_sorted`` (see :func:`dead_array`)
    from a decoded record.

    A record with no dead document comes back as the same object.
    Otherwise the live documents come back as a fresh
    :class:`RecordArrays` (the input, which may be cache-shared, is
    untouched); a deferred input stays deferred, its position-gap column
    filtered by whole documents, since each document's run starts
    absolute.  Equivalent to filtering the reference posting list by
    doc id.
    """
    keep = _live_mask(arrays.doc_ids, dead_sorted)
    if keep is None:
        return arrays
    doc_ids = arrays.doc_ids[keep]
    tf = arrays.tf[keep]
    keep_positions = np.repeat(keep, arrays.tf)
    if arrays._gaps is not None:
        return RecordArrays.deferred(doc_ids, tf, arrays._gaps[keep_positions])
    return RecordArrays(
        doc_ids, tf, arrays.positions[keep_positions], _exclusive_cumsum(tf)
    )


def dead_column_filter(dead) -> Optional[Callable]:
    """(doc_ids, tf) -> (doc_ids, tf) with ``dead`` documents dropped.

    Returns ``None`` when there is nothing to filter; the filter passes
    columns with no dead document through untouched.
    """
    if not dead:
        return None
    dead_sorted = dead_array(dead)

    def filter_columns(doc_ids, tf):
        keep = _live_mask(doc_ids, dead_sorted)
        if keep is None:
            return doc_ids, tf
        return doc_ids[keep], tf[keep]

    return filter_columns


class DecodeCache:
    """Bounded LRU memo of decoded records: the fast path's one decode
    entry point.

    Each engine owns one, so a record its queries read again — the same
    term, or the same chunk of a chained record — is decoded once.
    Callers still fetch the record and pay its decode charge on the
    simulated clock: the memo removes real decode time and nothing
    else.

    Keys are the record *bytes*, so a record that is rewritten (e.g.
    by an incremental document add) can never serve stale arrays.
    Capacity is counted in the integers an entry keeps alive, bounding
    memory rather than entry count; a record heavier than the whole
    budget is decoded but not kept.  Cached :class:`RecordArrays` are
    shared, so their columns are read-only.

    :meth:`decode_live` memoizes the tombstone filter the same way,
    keyed by (record bytes, tombstone set): within one epoch a record
    read again is neither decoded nor filtered again.  Its entries
    share the budget, and they go when their tombstone set falls out of
    the few most recent ones.
    """

    #: A :meth:`decode_live` entry for a record no tombstone hits: the
    #: record's own arrays serve it, so the entry keeps nothing alive.
    _CLEAN = object()

    #: Tombstone sets whose filter entries are kept.  An epoch reads
    #: under two: the index's, and a term-cache hit's (the index's plus
    #: the documents compaction folded out after the hit's record was
    #: cached).
    _DEAD_SETS = 4

    def __init__(self, max_ints: int = 4_000_000):
        #: record bytes -> arrays, and (record bytes, tombstone set) ->
        #: live arrays or ``_CLEAN``; weighed by :meth:`_weight`
        self._lru = WeightedLRU(max_ints)
        #: recent tombstone sets, oldest first -> their probe arrays
        self._dead_sets: "OrderedDict[frozenset, np.ndarray]" = OrderedDict()

    @staticmethod
    def _weight(arrays: "RecordArrays") -> int:
        """The most integers ``arrays`` can keep alive from now on.

        Built, that is the positions plus three per-document columns.
        Deferred, it is the record's whole decoded integer stream (which
        the gap column views) plus ``doc_ids``, ``tf`` and a lazily
        built ``pos_starts`` — never less than the built form, so a
        later positions build only frees memory.
        """
        if arrays._gaps is None:
            return arrays.ctf + 3 * arrays.df
        gaps = arrays._gaps
        stream = gaps if gaps.base is None else gaps.base
        return stream.size + 3 * arrays.df

    def decode(self, record: bytes) -> "RecordArrays":
        """The record's arrays: memoized, or decoded and stored."""
        arrays = self._lru.get(record)
        if arrays is None:
            arrays = decode_record_arrays(record)
            self._lru.put(record, arrays, self._weight(arrays))
        return arrays

    def decode_live(self, record: bytes, dead) -> "RecordArrays":
        """The record's arrays without the documents in ``dead``.

        Decodes through :meth:`decode` first, so the raw entry's recency
        and the decode calls are the same as without the filter memo.
        """
        arrays = self.decode(record)
        if not dead:
            return arrays
        dead_key, dead_sorted = self._dead_set(dead)
        key = (record, dead_key)
        live = self._lru.get(key)
        if live is None:
            live = filter_record_arrays(arrays, dead_sorted)
            if live is arrays:
                self._lru.put(key, self._CLEAN, 1)
            else:
                self._lru.put(key, live, self._weight(live))
        return arrays if live is self._CLEAN else live

    def _dead_set(self, dead):
        """``dead``'s entry among the recent tombstone sets, made most
        recent; a new set evicts the oldest and its filter entries."""
        sets = self._dead_sets
        # Set equality compares sizes first, so a miss is cheap.
        key = next((known for known in reversed(sets) if known == dead), None)
        if key is None:
            if len(sets) == self._DEAD_SETS:
                stale, _probe = sets.popitem(last=False)
                for entry in self._lru.keys():
                    if type(entry) is tuple and entry[1] is stale:
                        self._lru.pop(entry)
            key = frozenset(dead)
            sets[key] = dead_array(key)
        else:
            sets.move_to_end(key)
        return key, sets[key]


def _scalar():
    # Imported lazily: postings dispatches *into* this module, so a
    # top-level import would be circular during package init.
    from ..inquery import postings as ref

    return ref


def decode_record_arrays(record: bytes) -> RecordArrays:
    """Decode a record into columnar arrays, documents and tfs first.

    One bulk byte scan recovers the record's integers; the document and
    tf columns are slices of them at offsets ``df`` fixes, and the
    position columns are left to :class:`RecordArrays` to build if
    anyone asks.  A record the slices cannot take as is — truncated,
    tfs that are not positive or do not sum to the header's ctf, values
    of 63 bits or more — goes to the scalar decoder, which handles it or
    raises the canonical error.
    """
    try:
        values, _clean = decode_stream(record)
    except IndexError_:
        return _arrays_via_scalar(record)
    if values.size < 2:
        return _arrays_via_scalar(record)  # raises the canonical error
    df = int(values[0])
    ctf = int(values[1])
    needed = 2 + 2 * df + ctf
    if values.size < needed:
        return _arrays_via_scalar(record)
    if df == 0:
        empty = np.empty(0, dtype=np.int64)
        return RecordArrays(empty, empty.copy(), empty.copy(), empty.copy())
    values = values.view(np.int64)  # < 2**63 by MAX_GROUPS
    # Sums over ``values`` can wrap int64 only past this product.
    wide = int(values.max()) * values.size >= 1 << 63
    tf = values[2 + df:2 + 2 * df].copy()  # a copy: the stream can go once positions exist
    if (tf < 1).any() or (sum(tf.tolist()) if wide else int(tf.sum())) != ctf:
        return _arrays_via_scalar(record)
    doc_ids = np.cumsum(values[2:2 + df])
    arrays = RecordArrays.deferred(doc_ids, tf, values[2 + 2 * df:needed])
    if wide and ((doc_ids < 0).any() or (arrays.positions < 0).any()):
        return _arrays_via_scalar(record)  # int64 overflow — huge values
    return arrays


def column_bounds(record: bytes, df: int) -> Tuple[int, int, int, int]:
    """Vector twin of :func:`repro.inquery.postings._column_bounds`.

    The v-byte terminators at integer indices 1, ``1 + df`` and
    ``1 + 2 df`` end the header and the two per-document columns; only
    the document-gap column is decoded.
    """
    raw = np.frombuffer(record, dtype=np.uint8)
    ends = np.flatnonzero(raw < 0x80)
    if ends.size < 2 + 2 * df:
        return _scalar()._column_bounds_py(record, df)  # truncated: canonical error
    header_end, docs_end, tfs_end = (ends[[1, 1 + df, 1 + 2 * df]] + 1).tolist()
    try:
        gaps, _clean = decode_stream(record[header_end:docs_end])
    except IndexError_:
        return _scalar()._column_bounds_py(record, df)  # gaps of 63 bits or more
    return header_end, docs_end, tfs_end, sum(gaps.tolist())


def _arrays_via_scalar(record: bytes) -> RecordArrays:
    """Reference decode, repackaged as arrays (also the error path)."""
    return arrays_from_postings(_scalar()._decode_record_py(record))


def arrays_from_postings(postings: Sequence[Posting]) -> RecordArrays:
    """Columnar form of an already-decoded posting list."""
    df = len(postings)
    doc_ids = np.fromiter((d for d, _p in postings), dtype=np.int64, count=df)
    tf = np.fromiter((len(p) for _d, p in postings), dtype=np.int64, count=df)
    ctf = int(tf.sum()) if df else 0
    positions = np.fromiter(
        (x for _d, ps in postings for x in ps), dtype=np.int64, count=ctf
    )
    return RecordArrays(doc_ids, tf, positions, _exclusive_cumsum(tf))


def decode_record_fast(record: bytes) -> List[Posting]:
    """Bulk decode returning the reference posting-list structure."""
    return decode_record_arrays(record).to_postings()


def encode_record_fast(postings: Sequence[Posting]) -> bytes:
    """Bulk encode; byte-identical to the reference encoder.

    Falls back to the scalar encoder on any irregularity (unsorted or
    negative input, oversized values) so error behavior — message and
    all — matches the reference exactly.
    """
    df = len(postings)
    if df == 0:
        return _scalar()._encode_record_py(postings)
    try:
        arrays = arrays_from_postings(postings)
    except (TypeError, ValueError, OverflowError):
        return _scalar()._encode_record_py(postings)
    return encode_from_arrays(arrays, _fallback=postings)


def encode_from_arrays(arrays: RecordArrays, _fallback=None) -> bytes:
    """Encode columnar postings; validates like the reference encoder."""
    doc_ids, tf, positions = arrays.doc_ids, arrays.tf, arrays.positions
    df = arrays.df
    ctf = arrays.ctf

    def bail():
        postings = _fallback if _fallback is not None else arrays.to_postings()
        return _scalar()._encode_record_py(postings)

    if df == 0:
        return bail()
    if (tf < 1).any() or doc_ids[0] < 0:
        return bail()
    dgaps = np.empty(df, dtype=np.int64)
    dgaps[0] = doc_ids[0]
    dgaps[1:] = doc_ids[1:] - doc_ids[:-1]
    if df > 1 and (dgaps[1:] <= 0).any():
        return bail()
    pos_starts = arrays.pos_starts
    pgaps = positions.copy()
    pgaps[1:] -= positions[:-1]
    pgaps[pos_starts] = positions[pos_starts]
    first_of_doc = np.zeros(ctf, dtype=bool)
    first_of_doc[pos_starts] = True
    if (pgaps[~first_of_doc] <= 0).any() or (pgaps[first_of_doc] < 0).any():
        return bail()

    values = np.concatenate((np.array([df, ctf], dtype=np.int64), dgaps, tf, pgaps))
    try:
        buffer, _lengths = encode_stream(values)
    except IndexError_:
        return bail()  # values beyond the vector encoder's 63-bit range
    return buffer
