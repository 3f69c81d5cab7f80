"""Prepared collections: index once, materialize per backend.

The evaluation builds the *same* inverted file into three storage
configurations.  Tokenizing and sorting a multi-million-token collection
three times would triple the (untimed) build cost for no fidelity gain —
the paper, too, indexed each collection once per storage format from the
same parsed data.  :class:`PreparedCollection` runs the indexing sort a
single time (a stable sort of the term ranks: the postings arrive in
(doc, position) order, so sorting by term alone yields (term, doc,
position) — the same "dominated by a sorting problem" computation
as :class:`~repro.inquery.IndexBuilder`), keeps the encoded records and
renders every term string once; :func:`materialize` then bulk-loads them
into a fresh simulated machine per configuration.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..fastpath import state as _fastpath
from ..inquery import (
    BTreeInvertedFile,
    CollectionIndex,
    DocTable,
    HashDictionary,
    IndexStats,
    MnemeInvertedFile,
    TermEntry,
    decode_record,
    encode_record,
    uncompressed_size,
)
from ..simdisk import SimClock, SimDisk, SimFileSystem
from ..synth import SyntheticCollection, term_strings
from .config import SystemConfig, table2_buffer_sizes


@dataclass
class PreparedCollection:
    """One collection's index data, independent of storage backend."""

    name: str
    collection: SyntheticCollection
    records: List[Tuple[int, bytes]]          #: (term id, encoded record)
    term_id_of_rank: Dict[int, int]
    rank_of_term_id: Dict[int, int]
    df: Dict[int, int]                        #: term id -> document frequency
    ctf: Dict[int, int]
    doctable: DocTable
    stats: IndexStats
    #: term id -> largest within-document frequency (pruning bound input).
    max_tf: Dict[int, int] = field(default_factory=dict)
    #: Term strings by term id: term id ``t`` is ``terms[t - 1]``.
    terms: List[str] = field(default_factory=list)

    @property
    def record_count(self) -> int:
        return len(self.records)

    @property
    def largest_record(self) -> int:
        return max(self.stats.record_sizes) if self.stats.record_sizes else 0

    def record_size_of_rank(self, rank: int) -> int:
        """Inverted list size for a term rank (Figure 2's x axis)."""
        term_id = self.term_id_of_rank.get(rank)
        if term_id is None:
            return 0
        return len(self._records_by_term_id[term_id])

    def docs_of_rank(self, rank: int) -> Sequence[int]:
        """Documents containing a term rank (drives relevance synthesis)."""
        term_id = self.term_id_of_rank.get(rank)
        if term_id is None:
            return ()
        record = self._records_by_term_id[term_id]
        return [doc for doc, _positions in decode_record(record)]

    @cached_property
    def _records_by_term_id(self) -> Dict[int, bytes]:
        return dict(self.records)


def prepare_collection(collection: SyntheticCollection, name: Optional[str] = None) -> PreparedCollection:
    """Run the indexing sort and record encoding once for a collection."""
    ranks, doc_ids, positions = collection.flat_postings()
    if len(ranks) == 0:
        raise ConfigError("cannot index an empty collection")
    # flat_postings emits (doc, position) order, so the stable sort by
    # term alone is the (term, doc, position) sort.  Sorting the
    # distinct keys rank * n + i yields that stable order without a
    # stable sort.
    n = len(ranks)
    if int(ranks.max()) >= np.iinfo(np.int64).max // n:
        raise ConfigError("collection too large for the indexing sort key")
    ranks, order = np.divmod(np.sort(ranks * n + np.arange(n)), n)
    doc_ids, positions = doc_ids[order], positions[order]

    stats = IndexStats(documents=len(collection), postings=len(ranks))
    records: List[Tuple[int, bytes]] = []
    term_id_of_rank: Dict[int, int] = {}
    df: Dict[int, int] = {}
    ctf: Dict[int, int] = {}
    max_tf: Dict[int, int] = {}

    # Term ids are assigned in rank order, so records stream out sorted by
    # term id — the order the B-tree bulk load requires.
    if _fastpath.ENABLED:
        # One kernel pass over the whole collection; records are
        # byte-identical to the per-term reference encodes below.
        from ..fastpath.build import encode_collection

        encoded = encode_collection(ranks, doc_ids, positions)
        records = encoded.records
        term_ids = range(1, len(records) + 1)
        distinct_ranks = encoded.ranks
        term_id_of_rank = dict(zip(distinct_ranks.tolist(), term_ids))
        df = dict(zip(term_ids, encoded.df.tolist()))
        ctf = dict(zip(term_ids, encoded.ctf.tolist()))
        max_tf = dict(zip(term_ids, encoded.max_tf.tolist()))
        stats.records = len(records)
        stats.compressed_bytes = encoded.compressed_bytes
        stats.uncompressed_bytes = encoded.uncompressed_bytes
        stats.record_sizes = encoded.record_sizes.tolist()
    else:
        distinct_ranks, starts = np.unique(ranks, return_index=True)
        boundaries = list(starts) + [len(ranks)]
        for i, rank in enumerate(distinct_ranks):
            term_id = i + 1
            term_id_of_rank[int(rank)] = term_id
            lo, hi = boundaries[i], boundaries[i + 1]
            postings = []
            docs = doc_ids[lo:hi]
            poss = positions[lo:hi]
            doc_breaks = np.nonzero(np.diff(docs))[0] + 1
            for chunk_docs, chunk_pos in zip(
                np.split(docs, doc_breaks), np.split(poss, doc_breaks)
            ):
                postings.append((int(chunk_docs[0]), tuple(int(p) for p in chunk_pos)))
            record = encode_record(postings)
            records.append((term_id, record))
            df[term_id] = len(postings)
            ctf[term_id] = hi - lo
            max_tf[term_id] = max(len(p) for _d, p in postings)
            stats.records += 1
            stats.compressed_bytes += len(record)
            stats.uncompressed_bytes += uncompressed_size(postings)
            stats.record_sizes.append(len(record))

    doctable = DocTable()
    for doc_index, length in enumerate(collection.doc_lengths):
        doctable.add(doc_index + 1, int(length))

    return PreparedCollection(
        name=name or collection.profile.name,
        collection=collection,
        records=records,
        term_id_of_rank=term_id_of_rank,
        rank_of_term_id=dict(zip(term_id_of_rank.values(), term_id_of_rank)),
        df=df,
        ctf=ctf,
        doctable=doctable,
        stats=stats,
        max_tf=max_tf,
        terms=term_strings(distinct_ranks),
    )


@dataclass
class IRSystem:
    """One materialized system: a simulated machine plus an index."""

    config: SystemConfig
    fs: SimFileSystem
    clock: SimClock
    index: CollectionIndex
    prepared: PreparedCollection

    @property
    def name(self) -> str:
        return self.config.name

    # A sharded system's topology view: a flat system is shard 0's one
    # machine and owns every document.
    def machines(self) -> Dict[Tuple[int, int], "IRSystem"]:
        return {(0, 0): self}

    def replica(self, shard_id: int, replica_id: int) -> "IRSystem":
        if (shard_id, replica_id) != (0, 0):
            raise ConfigError(f"a flat system has no replica {shard_id}/{replica_id}")
        return self

    def shard_of_doc(self, doc_id: int) -> int:
        return 0


def materialize(
    prepared: PreparedCollection,
    config: SystemConfig,
    fault_plan=None,
    shards: Optional[int] = None,
    partitioner: str = "hash",
    replicas: int = 0,
):
    """Build one configuration's system on a fresh simulated machine.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) is attached
    to the disk *before* the index build, so chaos harnesses can inject
    torn writes or mid-build space exhaustion into the build itself.

    With ``shards`` set, the collection is document-partitioned across
    that many independent simulated machines (each its own disk, pools,
    and Table 2 buffers) and a
    :class:`~repro.shard.system.ShardedIRSystem` is returned instead;
    ``partitioner`` selects the document partitioning scheme ("hash" or
    "range") and ``replicas`` adds that many byte-identical mirror
    machines per shard.  A sharded build takes no ``fault_plan``: fault
    one of its machines after the build with
    :meth:`~repro.shard.system.ShardedIRSystem.fault_shard`.
    """
    if shards is not None:
        if fault_plan is not None:
            raise ConfigError(
                "a sharded build takes no fault_plan; attach one after the "
                "build with ShardedIRSystem.fault_shard"
            )
        from ..shard import materialize_sharded

        return materialize_sharded(
            prepared,
            config,
            n_shards=shards,
            partitioner=partitioner,
            replicas=replicas,
        )
    if replicas:
        raise ConfigError("replicas require a sharded build (set shards=)")
    fs = fresh_fs(config)
    if fault_plan is not None:
        fs.disk.attach_fault_plan(fault_plan)
    store, keys = open_store(fs, config, prepared.largest_record, prepared.records)

    # Entries go in by ascending rank, as the term-at-a-time ``add``
    # loop this replaced inserted them; chain order and saved bytes
    # depend on it.
    term_of_rank = prepared.term_id_of_rank
    bounds_keys = store.chunk_bounds_keys
    dictionary = HashDictionary.from_entries(
        [
            TermEntry(
                prepared.terms[term_id - 1], term_id,
                prepared.df[term_id], prepared.ctf[term_id], keys[term_id],
                prepared.max_tf.get(term_id, 0),
                bounds_keys.get(keys[term_id], 0),
            )
            for term_id in map(term_of_rank.__getitem__, sorted(term_of_rank))
        ],
        initial_buckets=max(1024, len(prepared.records)),
    )

    doctable = DocTable()
    for doc_id, length in prepared.doctable.lengths.items():
        doctable.add(doc_id, length)

    index = CollectionIndex(
        fs=fs,
        dictionary=dictionary,
        doctable=doctable,
        store=store,
        # A copy: live ingest updates the counts, and one preparation
        # is materialized many times (replicas, gates, test fixtures).
        stats=replace(prepared.stats),
        stopwords=frozenset(),
        stem_fn=str,  # synthetic terms must not be stemmed
    )
    return IRSystem(config=config, fs=fs, clock=fs.disk.clock, index=index, prepared=prepared)


def fresh_fs(config: SystemConfig) -> SimFileSystem:
    """An empty file system on a fresh disk and clock, set up as ``config`` says."""
    return SimFileSystem(
        SimDisk(SimClock(cost=config.cost)),
        cache_blocks=config.fs_cache_blocks,
        readahead_blocks=config.readahead_blocks,
    )


def open_store(fs: SimFileSystem, config: SystemConfig, largest_record: int, records=None):
    """The configured store over ``fs`` (WAL, pools, Table 2 buffers) and
    its term id -> storage key map: a build bulk-loads ``records`` before
    the buffers attach; without records, the files on ``fs`` are opened.
    """
    wal = None
    if config.use_wal and config.backend != "btree":
        from ..mneme import RedoLog

        name = "invfile.wal"
        wal = RedoLog(fs.open(name) if fs.exists(name) else fs.create(name))
    if config.backend == "btree":
        store = BTreeInvertedFile(fs)
    elif config.backend == "mneme-linked":
        from ..inquery import LinkedMnemeInvertedFile

        store = LinkedMnemeInvertedFile(
            fs,
            medium_segment_bytes=config.medium_segment_bytes,
            medium_max_bytes=config.medium_max_bytes,
            chunk_bytes=config.chunk_bytes,
            wal=wal,
        )
    else:
        store = MnemeInvertedFile(
            fs,
            medium_segment_bytes=config.medium_segment_bytes,
            medium_max_bytes=config.medium_max_bytes,
            wal=wal,
        )
    keys = {} if records is None else store.bulk_build(iter(records))
    # An empty shard of a partitioned build has no records to size
    # buffers from; it serves nothing, so it needs no cache either.
    if config.backend.startswith("mneme") and config.cached and largest_record > 0:
        store.attach_buffers(
            table2_buffer_sizes(
                largest_record,
                medium_segment_bytes=config.medium_segment_bytes,
            )
        )
    return store, keys
