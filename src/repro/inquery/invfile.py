"""Inverted file storage backends.

The record format is fixed (:mod:`repro.inquery.postings`); what varies
is the subsystem that stores the records.  :class:`BTreeInvertedFile` is
the original custom keyed file; :class:`MnemeInvertedFile` is the paper's
integration, partitioning records into the three pools by size:

* at most 12 bytes            -> small object pool (16-byte slots, 4 KB segments)
* more than 12 B, at most 4 KB -> medium object pool (8 KB segments)
* more than 4 KB               -> large object pool (own segment)

and storing the returned Mneme identifier in the term's hash dictionary
entry.  The "Mneme, Cache" configuration attaches an LRU buffer per pool
(sized per Table 2); "Mneme, No Cache" leaves the default NullBuffer so
no inverted list data is retained across record accesses.
"""

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..btree import BTreeKeyedFile
from ..errors import PoolError
from ..mneme import (
    NULL_ID,
    ChunkedLargeObjectPool,
    LargeObjectPool,
    LRUBuffer,
    MediumObjectPool,
    MnemeStore,
    SmallObjectPool,
    chunk_ids,
    delete_linked,
    iter_linked,
    logical_segment,
    read_linked,
    split_global,
    write_linked,
    write_linked_chain,
)
from ..mneme.linked import _pack_chunk, _unpack_chunk
from .bounds import PrunableSource, decode_chunk_bounds, encode_chunk_bounds
from .postings import (
    Posting,
    append_bounds_memo,
    column_stats,
    join_columns,
    merge_records,
    split_columns,
)
from .streams import ChunkedRecordStream, PostingStream, WholeRecordStream
from ..simdisk import SimFile, SimFileSystem

#: Pool ids used by the integrated system.
SMALL_POOL, MEDIUM_POOL, LARGE_POOL = 1, 2, 3

#: Size partition thresholds (bytes), from Section 3.3 of the paper.
SMALL_MAX_BYTES = 12
MEDIUM_MAX_BYTES = 4096


@dataclass(frozen=True)
class BufferSizes:
    """Per-pool buffer budgets in bytes (Table 2 gives them in Kbytes)."""

    small: int
    medium: int
    large: int


class InvertedFileStore:
    """Interface both backends implement.

    ``storage_key`` is whatever the backend hands back at record-creation
    time: the term id itself for the B-tree, a Mneme global object id for
    the object store.  The dictionary stores it opaquely.
    """

    #: Number of record lookups performed (denominator of Table 5's "A").
    record_lookups: int = 0

    #: The append-bounds memo of :meth:`append_postings`
    #: (:func:`~repro.inquery.postings.append_bounds_memo`).
    append_bounds = None

    def bulk_build(self, records: Iterable[Tuple[int, bytes]]) -> Dict[int, int]:
        """Store records (term-id order) and return term id -> storage key."""
        raise NotImplementedError

    def fetch(self, key: int) -> bytes:
        """Retrieve one record by storage key."""
        raise NotImplementedError

    def reserve(self, key: int) -> bool:
        """Pin the record's buffered segment if resident (no-op if unsupported)."""
        return False

    def release_reservations(self) -> None:
        return None

    def add_record(self, term_id: int, data: bytes) -> int:
        """Store a new record, returning its storage key."""
        raise NotImplementedError

    def update_record(
        self, key: int, data: bytes, old: Optional[bytes] = None
    ) -> int:
        """Replace a record; returns the (possibly new) storage key.

        ``old`` is the record's current bytes when the caller has just
        fetched them, so a store that decides by the old size does not
        read the record a second time.
        """
        raise NotImplementedError

    def rewrite_in_place(self, key: int, transform: Callable[[bytes], bytes]) -> None:
        """Replace each stored piece of a record by ``transform(piece)``.

        Every piece — the record, or each chunk of a chained record —
        is rewritten where it lies.  ``transform`` must keep a piece's
        length, so no object moves, no chain is re-split and bound
        sidecars stay valid; opening an old platter uses this to give
        its records the current body layout.
        """
        raise NotImplementedError

    def append_postings(
        self, key: int, postings: Sequence[Posting], bounds_key: int = 0
    ) -> Tuple[int, int]:
        """Grow a record by ``postings`` (sorted by document id).

        The store's one grow-a-record entry point: one call per term per
        ingest batch.  Returns the (possibly new) storage key and bound
        sidecar key.  The default rewrites the record whole — one fetch,
        :func:`~repro.inquery.postings.merge_records`, write back (the
        fetched bytes decide modify-or-re-home, so the record is read
        once), refresh the sidecar; backends that store records in
        pieces override it to touch only the piece that grows.
        """
        old = self.fetch(key)
        merged = merge_records(old, postings, self.append_bounds)
        key = self.update_record(key, merged, old)
        return key, self.refresh_bounds(key, bounds_key)

    def stream_postings(self, key: int) -> PostingStream:
        """A sequential posting reader over one record.

        The default transfers the whole record (one lookup) and streams
        from memory; backends that store records in independently
        decodable pieces override this to keep only one piece resident —
        the document-at-a-time enabler.
        """
        return WholeRecordStream(self.fetch(key))

    # -- dynamic-pruning bound metadata ----------------------------------------

    #: Record storage key -> storage key of its per-chunk bound sidecar
    #: (absent = none).  Only backends that store records in
    #: independently fetchable pieces have per-chunk bounds; everyone
    #: else prunes at whole-record granularity off the dictionary's
    #: ``max_tf`` alone.
    chunk_bounds_keys: Mapping[int, int] = MappingProxyType({})

    def refresh_bounds(self, key: int, old_bounds_key: int = 0) -> int:
        """Rebuild the bound sidecar for ``key`` after a record mutation.

        Returns the new sidecar key (0 when the backend keeps no
        sidecars), releasing ``old_bounds_key`` if it is superseded.
        """
        return 0

    def open_prune_source(self, entry) -> PrunableSource:
        """The record behind ``entry`` as bounded, skippable blocks.

        ``entry`` is the term's dictionary entry (``storage_key`` +
        ``max_tf`` + ``bounds_key``).  The default view is a single
        block covering the whole record: it can be bound-skipped (never
        fetched at all) but not range-skipped.  Backends with chunked
        storage override this to expose one block per chunk.
        """
        key = entry.storage_key
        return PrunableSource([lambda: self.fetch(key)], [None], [entry.max_tf])

    def flush(self) -> None:
        raise NotImplementedError

    @property
    def files(self) -> List[SimFile]:
        """Every simulated file the backend reads during query processing."""
        raise NotImplementedError

    @property
    def file_size(self) -> int:
        """Total index size on disk (Table 1)."""
        return sum(f.size for f in self.files)


class BTreeInvertedFile(InvertedFileStore):
    """The custom B-tree keyed file backend (the baseline)."""

    def __init__(self, fs: SimFileSystem, name: str = "invfile"):
        file_name = f"{name}.btree"
        file = fs.open(file_name) if fs.exists(file_name) else fs.create(file_name)
        self.tree = BTreeKeyedFile(file)
        self.record_lookups = 0
        self.append_bounds = append_bounds_memo()

    def bulk_build(self, records: Iterable[Tuple[int, bytes]]) -> Dict[int, int]:
        keys: Dict[int, int] = {}

        def counted():
            for term_id, data in records:
                keys[term_id] = term_id
                yield term_id, data

        self.tree.bulk_load(counted())
        return keys

    def fetch(self, key: int) -> bytes:
        self.record_lookups += 1
        return self.tree.lookup(key)

    def add_record(self, term_id: int, data: bytes) -> int:
        self.tree.insert(term_id, data)
        return term_id

    def update_record(
        self, key: int, data: bytes, old: Optional[bytes] = None
    ) -> int:
        self.tree.replace(key, data)
        return key

    def rewrite_in_place(self, key: int, transform: Callable[[bytes], bytes]) -> None:
        self.tree.overwrite(key, transform(self.tree.lookup(key)))

    def flush(self) -> None:
        self.tree.sync()

    @property
    def files(self) -> List[SimFile]:
        return [self.tree._pages.file]

    @property
    def height(self) -> int:
        return self.tree.height


class MnemeInvertedFile(InvertedFileStore):
    """The persistent object store backend (the paper's contribution)."""

    #: Pool class used for records above the medium threshold.
    LARGE_POOL_FACTORY = LargeObjectPool

    def __init__(
        self,
        fs: SimFileSystem,
        name: str = "invfile",
        buffer_sizes: Optional[BufferSizes] = None,
        medium_segment_bytes: int = 8192,
        medium_max_bytes: int = MEDIUM_MAX_BYTES,
        wal=None,
    ):
        self.store = MnemeStore(fs)
        self.mfile = self.store.open_file(name, wal=wal)
        self.medium_max_bytes = medium_max_bytes
        self.small = self.mfile.create_pool(SMALL_POOL, SmallObjectPool)
        self.medium = self.mfile.create_pool(
            MEDIUM_POOL,
            MediumObjectPool,
            segment_bytes=medium_segment_bytes,
            max_object_bytes=medium_max_bytes,
        )
        self.large = self.mfile.create_pool(LARGE_POOL, self.LARGE_POOL_FACTORY)
        self.mfile.load()
        self.record_lookups = 0
        self.append_bounds = append_bounds_memo()
        self.cached = buffer_sizes is not None
        if buffer_sizes is not None:
            self.attach_buffers(buffer_sizes)

    def attach_buffers(self, sizes: BufferSizes) -> None:
        """Attach one LRU buffer per pool, as the integrated system does.

        "Each object pool was attached to a separate buffer, allowing the
        global buffer space to be divided between the object pools based
        on expected access patterns and memory requirements."
        """
        self.small.attach_buffer(LRUBuffer(sizes.small))
        self.medium.attach_buffer(LRUBuffer(sizes.medium))
        self.large.attach_buffer(LRUBuffer(sizes.large))
        self.cached = True

    def _pool_for(self, data: bytes):
        if len(data) <= SMALL_MAX_BYTES:
            return self.small
        if len(data) <= self.medium_max_bytes:
            return self.medium
        return self.large

    def bulk_build(self, records: Iterable[Tuple[int, bytes]]) -> Dict[int, int]:
        keys = self._bulk_store(records, self.large.create)
        self.flush()
        return keys

    def _bulk_store(
        self,
        records: Iterable[Tuple[int, bytes]],
        create_large: Callable[[bytes], int],
    ) -> Dict[int, int]:
        """Store every record into the empty pools, as ``create`` per record
        would: the small and medium pools fill a segment at a time
        (``bulk_events``), large records go through ``create_large``,
        and all of it runs in record order."""
        records = list(records)
        term_ids, datas = zip(*records) if records else ((), ())
        sizes = np.fromiter(map(len, datas), dtype=np.int64, count=len(datas))
        small = sizes <= SMALL_MAX_BYTES
        large = sizes > self.medium_max_bytes
        oids = np.zeros(len(datas), dtype=np.int64)

        def store_large(index: int) -> None:
            oids[index] = create_large(datas[index])

        events = [
            (index, partial(store_large, index))
            for index in np.flatnonzero(large).tolist()
        ]
        finishes = []
        for pool, members in ((self.small, small), (self.medium, ~small & ~large)):
            at = np.flatnonzero(members).tolist()
            pool_events, finish = pool.bulk_events([datas[i] for i in at], at)
            events += pool_events
            finishes.append((at, finish))
        # A record allocates a logical segment before it can push a
        # full segment out; the stable sort keeps that order.
        events.sort(key=itemgetter(0))
        for _index, action in events:
            action()
        for at, finish in finishes:
            oids[at] = finish()
        return dict(zip(term_ids, self.store.global_ids(self.mfile, oids.tolist())))

    def fetch(self, key: int) -> bytes:
        self.record_lookups += 1
        return self.store.fetch(key)

    def reserve(self, key: int) -> bool:
        return self.store.reserve(key)

    def release_reservations(self) -> None:
        self.store.release_reservations()

    def add_record(self, term_id: int, data: bytes) -> int:
        oid = self._pool_for(data).create(data)
        return self.store.global_id(self.mfile, oid)

    def update_record(
        self, key: int, data: bytes, old: Optional[bytes] = None
    ) -> int:
        """Modify in place when the pool allows it, else re-home the record.

        Growing past a pool's limits relocates the record to the right
        pool and returns a new key; the old object is deleted (its space
        management is the pool's concern).
        """
        _file_no, oid = split_global(key)
        if old is None:
            old = self.mfile.fetch(oid)
        if self._pool_for(old) is self._pool_for(data):
            try:
                self.mfile.modify(oid, data)
                return key
            except PoolError:
                pass  # e.g. grown medium object no longer fits its segment
        self.mfile.delete(oid)
        new_oid = self._pool_for(data).create(data)
        return self.store.global_id(self.mfile, new_oid)

    def rewrite_in_place(self, key: int, transform: Callable[[bytes], bytes]) -> None:
        self._rewrite_object(split_global(key)[1], transform)

    def _rewrite_object(self, oid: int, transform: Callable[[bytes], bytes]) -> None:
        old = self.mfile.fetch(oid)
        data = transform(old)
        if len(data) != len(old):
            raise PoolError(f"in-place rewrite of object {oid} changed its length")
        self.mfile.modify(oid, data)

    def flush(self) -> None:
        self.store.flush()

    @property
    def files(self) -> List[SimFile]:
        return self.mfile.files

    def buffer_stats(self) -> Dict[str, "object"]:
        """Per-pool buffer statistics (Table 6)."""
        return {
            "small": self.small.buffer.stats,
            "medium": self.medium.buffer.stats,
            "large": self.large.buffer.stats,
        }

    def pool_object_counts(self) -> Dict[str, int]:
        return {
            "small": self.small.objects_created,
            "medium": self.medium.objects_created,
            "large": self.large.objects_created,
        }


class LinkedMnemeInvertedFile(MnemeInvertedFile):
    """Mneme backend storing large records as linked chunk chains.

    The paper's future-work data model, applied to the inverted file:
    records above the medium threshold are split into self-contained
    mini-records (:func:`~repro.inquery.postings.split_columns`) and
    stored as a chain of chunk objects.  Three capabilities follow:

    * :meth:`stream_postings` keeps only one chunk resident at a time,
      enabling document-at-a-time evaluation
      (:class:`~repro.inquery.daat.DocumentAtATimeEngine`);
    * growing a record rewrites its tail chunk (:meth:`append_postings`)
      instead of relocating megabytes;
    * a prefix of a huge record can be retrieved without the rest.

    ``fetch`` remains available (it reassembles the chain), so the
    term-at-a-time engine runs unchanged on this backend.
    """

    LARGE_POOL_FACTORY = ChunkedLargeObjectPool

    def __init__(self, *args, chunk_bytes: int = 16384, **kwargs):
        super().__init__(*args, **kwargs)
        if chunk_bytes < 64:
            raise PoolError("chunk_bytes too small for a useful mini-record")
        self.chunk_bytes = chunk_bytes
        #: record storage key -> bound-sidecar storage key, for records
        #: created (or refreshed) by this instance.  The dictionary entry
        #: is the persistent home of the mapping; this map is how a fresh
        #: key reaches the dictionary at build/finalize time.  A
        #: registered sidecar always matches its chain: every path that
        #: changes a chain rewrites the sidecar with it.
        self.chunk_bounds_keys: Dict[int, int] = {}

    def _create_large(self, data: bytes) -> Tuple[List[int], List[int], List[int]]:
        """Store a record as a chain: its chunk ids, last docs and max tfs."""
        parts, last_docs, max_tfs = split_columns(data, self.chunk_bytes)
        return write_linked_chain(self.large, parts), last_docs, max_tfs

    def _create_chain(self, data: bytes) -> int:
        """Store a record as a chain with its bound sidecar; returns its key."""
        oids, last_docs, max_tfs = self._create_large(data)
        key = self.store.global_id(self.mfile, oids[0])
        self._register_bounds(key, encode_chunk_bounds(oids, last_docs, max_tfs))
        return key

    def _is_large_key(self, key: int) -> bool:
        _file_no, oid = split_global(key)
        return self.large.owns_logseg(logical_segment(oid))

    def bulk_build(self, records: Iterable[Tuple[int, bytes]]) -> Dict[int, int]:
        """Two-phase build: every record first, every bound sidecar after.

        Deferring the sidecars keeps the records' object ids and segment
        layout byte-for-byte what a pre-bounds build produced, so
        layout-sensitive observables (segment counts, record placement)
        stay comparable across index versions.
        """
        pending: List[Tuple[int, Tuple[List[int], List[int], List[int]]]] = []

        def create_large(data: bytes) -> int:
            chain = self._create_large(data)
            pending.append((self.store.global_id(self.mfile, chain[0][0]), chain))
            return chain[0][0]

        keys = self._bulk_store(records, create_large)
        for key, (oids, last_docs, max_tfs) in pending:
            self._register_bounds(key, encode_chunk_bounds(oids, last_docs, max_tfs))
        self.flush()
        return keys

    def add_record(self, term_id: int, data: bytes) -> int:
        pool = self._pool_for(data)
        if pool is self.large:
            return self._create_chain(data)
        return self.store.global_id(self.mfile, pool.create(data))

    def fetch(self, key: int) -> bytes:
        if not self._is_large_key(key):
            return super().fetch(key)
        self.record_lookups += 1
        _file_no, oid = split_global(key)
        return join_columns(list(iter_linked(self.large, oid)))

    def stream_postings(self, key: int) -> PostingStream:
        if not self._is_large_key(key):
            return super().stream_postings(key)
        self.record_lookups += 1
        _file_no, oid = split_global(key)
        return ChunkedRecordStream(iter_linked(self.large, oid))

    def update_record(
        self, key: int, data: bytes, old: Optional[bytes] = None
    ) -> int:
        if not self._is_large_key(key):
            # A small or medium object is below the large category, so
            # only the new size can send the record to a chain.
            if self._pool_for(data) is not self.large:
                return super().update_record(key, data, old)
            # Crossing into the large category: re-home as a chain.
            self.mfile.delete(split_global(key)[1])
            return self._create_chain(data)
        _file_no, oid = split_global(key)
        delete_linked(self.large, oid)
        self.chunk_bounds_keys.pop(key, None)
        if self._pool_for(data) is self.large:
            return self._create_chain(data)
        new_oid = self._pool_for(data).create(data)
        return self.store.global_id(self.mfile, new_oid)

    def rewrite_in_place(self, key: int, transform: Callable[[bytes], bytes]) -> None:
        if not self._is_large_key(key):
            super().rewrite_in_place(key, transform)
            return

        def rewrite_chunk(data: bytes) -> bytes:
            next_oid, payload = _unpack_chunk(data)
            return _pack_chunk(next_oid, transform(payload))

        for oid in chunk_ids(self.large, split_global(key)[1]):
            self._rewrite_object(oid, rewrite_chunk)

    def append_postings(
        self, key: int, postings: Sequence[Posting], bounds_key: int = 0
    ) -> Tuple[int, int]:
        """Grow a chained record at its tail: cost independent of its length.

        The sidecar names the tail chunk and the chain's last document
        id, so postings that all follow it merge into the tail chunk
        alone; the tail is re-split only if it overflows ``chunk_bytes``
        (new chunks are written before the tail links to them), and the
        sidecar is rewritten from its decoded columns plus the new
        tail's.  No chunk before the tail is read or written.  Unchained
        records, and postings that do not follow the chain, take the
        whole-record rewrite.
        """
        if not self._is_large_key(key):
            return super().append_postings(key, postings, bounds_key)
        bounds_key = bounds_key or self.refresh_bounds(key)
        oids, last_docs, max_tfs = decode_chunk_bounds(self._read_bounds(bounds_key))
        if postings[0][0] <= last_docs[-1]:
            return super().append_postings(key, postings, bounds_key)
        tail = oids[-1]
        parts, tail_last_docs, tail_max_tfs = split_columns(
            merge_records(
                _unpack_chunk(self.large.fetch(tail))[1], postings,
                self.append_bounds,
            ),
            self.chunk_bytes,
        )
        grown = write_linked_chain(self.large, parts[1:]) if parts[1:] else []
        self.large.modify(
            tail, _pack_chunk(grown[0] if grown else NULL_ID, parts[0])
        )
        bounds_key = self._sidecar_update(bounds_key, encode_chunk_bounds(
            oids[:-1] + [tail] + grown,
            last_docs[:-1] + tail_last_docs,
            max_tfs[:-1] + tail_max_tfs,
        ))
        self.chunk_bounds_keys[key] = bounds_key
        return key, bounds_key

    # -- bound sidecars --------------------------------------------------------

    def _sidecar_create(self, payload: bytes) -> int:
        """Store a sidecar payload, chaining it if it outgrows the pools."""
        pool = self._pool_for(payload)
        if pool is self.large:
            oid = write_linked(self.large, payload, self.chunk_bytes)
        else:
            oid = pool.create(payload)
        return self.store.global_id(self.mfile, oid)

    def _sidecar_delete(self, bounds_key: int) -> None:
        if not bounds_key:
            return
        _file_no, oid = split_global(bounds_key)
        if self._is_large_key(bounds_key):
            delete_linked(self.large, oid)
        else:
            self.mfile.delete(oid)

    def _sidecar_update(self, bounds_key: int, payload: bytes) -> int:
        """Rewrite a sidecar, in place while it stays out of the large pool."""
        if (
            not self._is_large_key(bounds_key)
            and self._pool_for(payload) is not self.large
        ):
            return MnemeInvertedFile.update_record(self, bounds_key, payload)
        self._sidecar_delete(bounds_key)
        return self._sidecar_create(payload)

    def _read_bounds(self, bounds_key: int) -> bytes:
        _file_no, oid = split_global(bounds_key)
        if self._is_large_key(bounds_key):
            return read_linked(self.large, oid)
        return self.mfile.fetch(oid)

    def _register_bounds(self, key: int, payload: bytes) -> int:
        bounds_key = self._sidecar_create(payload)
        self.chunk_bounds_keys[key] = bounds_key
        return bounds_key

    def refresh_bounds(self, key: int, old_bounds_key: int = 0) -> int:
        """The bound sidecar for ``key``, built from its chain if it has none.

        Record rewrites re-home a chain under a new key with a new
        sidecar; the indexer calls this afterwards and stores the
        returned key in the dictionary entry.  ``old_bounds_key`` is the
        entry's previous sidecar, released here if superseded.  Records
        that are not chunked chains keep no sidecar (returns 0).
        """
        current = self.chunk_bounds_keys.get(key, 0)
        if old_bounds_key and old_bounds_key != current:
            self._sidecar_delete(old_bounds_key)
        if not self._is_large_key(key):
            if current:
                self._sidecar_delete(current)
                del self.chunk_bounds_keys[key]
            return 0
        if current:
            return current
        _file_no, head = split_global(key)
        oids = chunk_ids(self.large, head)
        last_docs, max_tfs = zip(*(
            column_stats(_unpack_chunk(self.large.fetch(oid))[1]) for oid in oids
        ))
        return self._register_bounds(
            key, encode_chunk_bounds(oids, last_docs, max_tfs)
        )

    def open_prune_source(self, entry) -> PrunableSource:
        """One block per chunk, each independently fetchable and bounded.

        Without a sidecar (an index saved before bound metadata existed)
        the chain degrades to a single whole-record block — still
        correct, just not range-skippable.  ``record_lookups`` counts
        the term once, on the first chunk actually fetched: a term whose
        every block is skipped costs no lookup at all.
        """
        key = entry.storage_key
        if not self._is_large_key(key):
            return super().open_prune_source(entry)
        bounds_key = entry.bounds_key or self.chunk_bounds_keys.get(key, 0)
        if not bounds_key:
            return PrunableSource([lambda: self.fetch(key)], [None], [entry.max_tf])
        oids, last_docs, max_tfs = decode_chunk_bounds(self._read_bounds(bounds_key))
        counted = [False]

        def chunk_fetcher(oid: int):
            def fetch() -> bytes:
                if not counted[0]:
                    counted[0] = True
                    self.record_lookups += 1
                return _unpack_chunk(self.large.fetch(oid))[1]

            return fetch

        return PrunableSource([chunk_fetcher(oid) for oid in oids], last_docs, max_tfs)
