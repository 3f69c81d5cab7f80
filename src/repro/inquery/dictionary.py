"""The open-chaining hash dictionary.

"INQUERY uses an open-chaining hash dictionary to map text strings
(words) to unique integers called term ids.  The hash dictionary also
stores summary statistics for each string and resides entirely in main
memory during query processing."  After the Mneme integration, "the
Mneme identifier assigned to the object was stored in the INQUERY hash
dictionary entry for the associated term."

The chains are explicit (an array of buckets of linked entries) rather
than a Python dict, because the dictionary's growth and collision
behaviour is part of the system being reproduced; the table doubles when
the load factor passes 4 chained entries per bucket.

A whole dictionary (an index build, a load) is assembled by
:meth:`HashDictionary.from_entries`: numpy hashes every term and works
out each chain's order, so the result is the dictionary that ``add``
calls in the same order would have built, down to its saved bytes.

The saved file lists every chain in bucket order, so after its first
:meth:`HashDictionary.save` a dictionary keeps that image as one packed
``bytes`` per chain and a later save repacks only the chains changed
since: ``add`` marks its own chain, ``_grow`` drops the image, and code
that changes an entry's fields calls :meth:`HashDictionary.touch`.  An
ingest epoch then pays for the terms it touched, not the vocabulary;
the file written is byte for byte the full serialization.
"""

import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set

import numpy as np

from ..errors import IndexError_
from ..simdisk import SimFile


@dataclass(slots=True)
class TermEntry:
    """One dictionary entry: id, collection statistics, storage key."""

    term: str
    term_id: int
    df: int = 0         #: document frequency
    ctf: int = 0        #: collection term frequency
    storage_key: int = 0  #: B-tree key or Mneme global object id
    #: Largest within-document term frequency across the record.  Feeds
    #: the dynamic-pruning score upper bound; 0 means "unknown" (an
    #: index saved before bound metadata existed) and disables pruning
    #: for this term.
    max_tf: int = 0
    #: Storage key of the per-chunk bound sidecar for linked records
    #: (0 = none; whole records need only ``max_tf``).
    bounds_key: int = 0
    next: Optional["TermEntry"] = None  #: chain link


def _hash(term: str) -> int:
    """FNV-1a over the term bytes; stable across runs (unlike hash())."""
    h = 0x811C9DC5
    for byte in term.encode("utf-8"):
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return h


def _hashes(terms: Sequence[str]) -> np.ndarray:
    """:func:`_hash` of every term at once (``uint32``).

    FNV-1a runs one byte column at a time over all terms still that
    long; ``uint32`` arithmetic wraps exactly like the ``& 0xFFFFFFFF``.
    """
    raw = [term.encode("utf-8") for term in terms]
    lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    flat = np.frombuffer(b"".join(raw), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    h = np.full(len(raw), 0x811C9DC5, dtype=np.uint32)
    for column in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > column)
        h[live] = (h[live] ^ flat[starts[live] + column]) * np.uint32(0x01000193)
    return h


def _chain_order(hashes: np.ndarray, buckets: int) -> "tuple[int, np.ndarray]":
    """Final bucket count and chain layout of inserting ``hashes`` in order.

    Returns ``(buckets, order)``: ``order`` lists insertion indexes
    grouped by final bucket (ascending), each group head first.  ``add``
    prepends, so a run of inserts lands in its bucket newest first; a
    ``_grow`` walks every chain head first and prepends into the doubled
    table, which reverses each chain's surviving order.
    """
    order = np.empty(0, dtype=np.int64)
    start = 0
    while True:
        stop = min(len(hashes), 4 * buckets)  # ``add`` grows at 4 per bucket
        order = np.concatenate([np.arange(stop - 1, start - 1, -1), order])
        if stop == len(hashes):
            break
        buckets *= 2
        start = stop
        order = order[::-1]
    bucket_of = (hashes[order] % buckets).astype(np.int64)
    return buckets, order[np.argsort(bucket_of, kind="stable")]


class HashDictionary:
    """In-memory open-chaining hash from term string to :class:`TermEntry`."""

    def __init__(self, initial_buckets: int = 1024):
        if initial_buckets < 1:
            raise IndexError_("dictionary needs at least one bucket")
        self._buckets: List[Optional[TermEntry]] = [None] * initial_buckets
        self._count = 0
        self._next_id = 1  # term id 0 is reserved
        #: Saved image, one packed chain per bucket (``None`` until the
        #: first :meth:`save`, and again after a ``_grow``).
        self._chains: Optional[List[bytes]] = None
        #: Terms whose chains changed since the image was packed.
        self._dirty: Set[str] = set()

    def __len__(self) -> int:
        return self._count

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    def lookup(self, term: str) -> Optional[TermEntry]:
        """Return the entry for ``term`` or ``None``."""
        entry = self._buckets[_hash(term) % len(self._buckets)]
        while entry is not None:
            if entry.term == term:
                return entry
            entry = entry.next
        return None

    def add(self, term: str, term_id: Optional[int] = None) -> TermEntry:
        """Return the entry for ``term``, creating it with a fresh id.

        A caller that assigns ids itself (a shard's dictionary keeps the
        collection-wide ids) passes ``term_id``; fresh ids then start
        above it, so a later term can never collide with it.
        """
        entry = self.lookup(term)
        if entry is not None:
            return entry
        if self._count >= 4 * len(self._buckets):
            self._grow()
        if term_id is None:
            term_id = self._next_id
        entry = TermEntry(term=term, term_id=term_id)
        self._next_id = max(self._next_id, term_id + 1)
        index = _hash(term) % len(self._buckets)
        entry.next = self._buckets[index]
        self._buckets[index] = entry
        self._count += 1
        self.touch(entry)
        return entry

    def touch(self, entry: TermEntry) -> None:
        """Note that ``entry``'s fields changed: the next :meth:`save`
        repacks its chain.  Every write to a saved entry must call it."""
        if self._chains is not None:
            self._dirty.add(entry.term)

    @classmethod
    def from_entries(
        cls, entries: Sequence[TermEntry], initial_buckets: int = 1024
    ) -> "HashDictionary":
        """The dictionary ``add`` would build from ``entries`` in order.

        The entries are linked as they are (fields kept); they must be
        fresh (unlinked) and their terms distinct.  Chains, bucket count, ``len`` and the next fresh id
        match ``add(entry.term, entry.term_id)`` called once per entry,
        so :meth:`save` writes the same bytes.
        """
        dictionary = cls(initial_buckets=initial_buckets)
        if not entries:
            return dictionary
        hashes = _hashes([entry.term for entry in entries])
        buckets, order = _chain_order(hashes, initial_buckets)
        bucket_of = (hashes[order] % buckets).astype(np.int64)
        heads = np.ones(len(order), dtype=bool)
        heads[1:] = bucket_of[1:] != bucket_of[:-1]
        table: List[Optional[TermEntry]] = [None] * buckets
        for bucket, index in zip(
            bucket_of[heads].tolist(), order[heads].tolist()
        ):
            table[bucket] = entries[index]
        linked = np.flatnonzero(~heads)
        for index, follower in zip(
            order[linked - 1].tolist(), order[linked].tolist()
        ):
            entries[index].next = entries[follower]
        dictionary._buckets = table
        dictionary._count = len(entries)
        dictionary._next_id = max(1, max(entry.term_id for entry in entries) + 1)
        return dictionary

    def entries(self) -> Iterator[TermEntry]:
        """Every entry, in no particular order."""
        for head in self._buckets:
            entry = head
            while entry is not None:
                yield entry
                entry = entry.next

    def by_id(self) -> dict:
        """term id -> entry map (built on demand; ids are query-time keys)."""
        return {entry.term_id: entry for entry in self.entries()}

    def _grow(self) -> None:
        self._chains = None
        self._dirty = set()
        old = self._buckets
        self._buckets = [None] * (len(old) * 2)
        self._count = 0
        next_id = self._next_id
        for head in old:
            entry = head
            while entry is not None:
                following = entry.next
                index = _hash(entry.term) % len(self._buckets)
                entry.next = self._buckets[index]
                self._buckets[index] = entry
                self._count += 1
                entry = following
        self._next_id = next_id

    # -- persistence -----------------------------------------------------------

    _REC = struct.Struct("<IIIQH")  # term id, df, ctf, storage key, term length
    #: v2 and v3 records append max_tf and the bound-sidecar storage key.
    _REC_V2 = struct.Struct("<IIIQHIQ")
    #: v2 and v3 files open with a magic word instead of the entry
    #: count.  A v1 file starts with its entry count, which can never
    #: reach 3.5 billion (the file itself would need 60+ GB), so the
    #: first word sniffs the version unambiguously.  v3 means the
    #: platter's records have the columnar body; v1 and v2 platters
    #: hold interleaved records until ``CollectionIndex.open`` rewrites
    #: them.
    _V2_MAGIC = 0xD1C70002
    _V3_MAGIC = 0xD1C70003

    #: Format version this dictionary was loaded from; a dictionary
    #: built in this process is current.
    version = 3

    def save(self, file: SimFile) -> None:
        """Serialize to a simulated file (loaded fully at system open).

        Writes the v3 layout (per-term bound metadata, columnar record
        bodies); v1 and v2 files still :meth:`load`.
        """
        chains = self._chains
        if chains is None:
            chains = self._chains = list(map(self._pack_chain, self._buckets))
        elif self._dirty:
            buckets = _hashes(list(self._dirty)) % len(self._buckets)
            for bucket in set(buckets.tolist()):
                chains[bucket] = self._pack_chain(self._buckets[bucket])
        self._dirty = set()
        head = struct.pack("<III", self._V3_MAGIC, self._count, self._next_id)
        file.truncate(0)
        file.write(0, b"".join([head, *chains]))

    def _pack_chain(self, entry: Optional[TermEntry]) -> bytes:
        """One bucket's saved records, head first."""
        parts = []
        while entry is not None:
            raw = entry.term.encode("utf-8")
            parts.append(
                self._REC_V2.pack(
                    entry.term_id, entry.df, entry.ctf, entry.storage_key,
                    len(raw), entry.max_tf, entry.bounds_key,
                )
            )
            parts.append(raw)
            entry = entry.next
        return b"".join(parts)

    @classmethod
    def load(cls, file: SimFile) -> "HashDictionary":
        """Rebuild a dictionary from :meth:`save` output (v1, v2 or v3).

        Entries restored from a v1 file carry ``max_tf == 0`` /
        ``bounds_key == 0`` — no bound metadata — which the engines
        treat as "pruning unavailable, evaluate exhaustively".
        """
        raw = file.read(0, file.size)
        if len(raw) < 8:
            raise IndexError_("dictionary file truncated")
        (first_word,) = struct.unpack_from("<I", raw, 0)
        version = {cls._V2_MAGIC: 2, cls._V3_MAGIC: 3}.get(first_word, 1)
        if version > 1:
            if len(raw) < 12:
                raise IndexError_("dictionary file truncated")
            count, next_id = struct.unpack_from("<II", raw, 4)
            pos = 12
            rec = cls._REC_V2
        else:
            count, next_id = struct.unpack_from("<II", raw, 0)
            pos = 8
            rec = cls._REC
        entries: List[TermEntry] = []
        for _ in range(count):
            if version > 1:
                term_id, df, ctf, key, term_len, max_tf, bounds_key = (
                    rec.unpack_from(raw, pos)
                )
            else:
                term_id, df, ctf, key, term_len = rec.unpack_from(raw, pos)
                max_tf, bounds_key = 0, 0
            pos += rec.size
            term = raw[pos:pos + term_len].decode("utf-8")
            pos += term_len
            entries.append(
                TermEntry(term, term_id, df, ctf, key, max_tf, bounds_key)
            )
        dictionary = cls.from_entries(
            entries, initial_buckets=max(1024, count // 2)
        )
        dictionary.version = version
        dictionary._next_id = next_id
        return dictionary
