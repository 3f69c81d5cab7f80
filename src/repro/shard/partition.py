"""Document partitioners and per-shard index preparation.

A shard owns a contiguous or hashed subset of the *documents*; every
posting of a document lives in that document's home shard.  This is the
document-partitioned ("local index") organization: each shard holds a
complete miniature inverted file over its own documents, queries fan out
to every shard, and per-shard top-k results merge losslessly because no
document's evidence is split across shards.

The partitioners are pure integer functions of the document id, so the
same document always lands on the same shard for a given (scheme, N) —
builds are reproducible and a re-partition is an explicit operation, not
an accident of iteration order.

:func:`partition_prepared` splits an already-prepared collection
(:class:`~repro.core.prepared.PreparedCollection`) without re-running
the indexing sort: every global record is decoded into posting columns
in one pass, the columns are masked by each posting's home shard, and
each shard's slice is encoded in one pass.  Term ids
stay *global*, so shard dictionaries, merge bookkeeping, and the N=1
degenerate case line up with the unsharded build exactly (for N=1 the
shard's records are byte-for-byte the unsharded records).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigError
from ..fastpath.build import decode_collection, encode_collection
from ..inquery import DocTable, IndexStats


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a deterministic, platform-stable int hash."""
    mask = (1 << 64) - 1
    value = (value + 0x9E3779B97F4A7C15) & mask
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
    return value ^ (value >> 31)


class Partitioner:
    """Maps a document id to its home shard."""

    scheme = "?"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ConfigError("a partitioned index needs at least one shard")
        self.n_shards = n_shards

    def shard_of(self, doc_id: int) -> int:
        raise NotImplementedError

    def refine(self, factor: int) -> "Partitioner":
        """A partitioner over ``n_shards * factor`` shards that *refines*
        this one: every new shard's documents all come from a single old
        shard (``parent_of``), so a split can stream each old platter
        into its children without any cross-shard document motion.
        """
        raise NotImplementedError

    def parent_of(self, child_shard: int, factor: int) -> int:
        """Old shard that owned every document of ``child_shard`` after
        ``refine(factor)``."""
        raise NotImplementedError

    def children_of(self, parent_shard: int, factor: int) -> List[int]:
        """New shards whose documents come from ``parent_shard``."""
        if not 0 <= parent_shard < self.n_shards:
            raise ConfigError(f"no shard {parent_shard} in {self.n_shards}")
        return [
            child
            for child in range(self.n_shards * factor)
            if self.parent_of(child, factor) == parent_shard
        ]

    def _check_factor(self, factor: int) -> None:
        if factor < 2:
            raise ConfigError(f"split factor must be >= 2, got {factor}")


class HashPartitioner(Partitioner):
    """Deterministic hash partitioning: uniform load, no locality.

    Uses the SplitMix64 finalizer rather than Python's salted ``hash``
    so shard assignment is identical across processes and platforms.
    """

    scheme = "hash"

    def shard_of(self, doc_id: int) -> int:
        return _mix64(doc_id) % self.n_shards

    def refine(self, factor: int) -> "HashPartitioner":
        # (h mod N·f) mod N == h mod N, so the residue class mod N·f
        # determines the old shard: hashing refines itself.
        self._check_factor(factor)
        return HashPartitioner(self.n_shards * factor)

    def parent_of(self, child_shard: int, factor: int) -> int:
        self._check_factor(factor)
        if not 0 <= child_shard < self.n_shards * factor:
            raise ConfigError(f"no child shard {child_shard}")
        return child_shard % self.n_shards


class RangePartitioner(Partitioner):
    """Contiguous document-id ranges: locality-preserving partitioning.

    Shard ``i`` owns an equal-width slice of ``[1, n_docs]``; with the
    synthetic collections' dense 1-based ids this balances document
    counts to within one.
    """

    scheme = "range"

    def __init__(self, n_shards: int, n_docs: int):
        super().__init__(n_shards)
        if n_docs < 1:
            raise ConfigError("cannot range-partition an empty collection")
        self.n_docs = n_docs

    def shard_of(self, doc_id: int) -> int:
        if doc_id < 1:
            raise ConfigError(f"document id {doc_id} outside [1, {self.n_docs}]")
        scaled = (min(doc_id, self.n_docs) - 1) * self.n_shards
        return scaled // self.n_docs

    def refine(self, factor: int) -> "RangePartitioner":
        # floor(x·N·f/D) // f == floor(x·N/D): each old range slice is
        # exactly the union of f consecutive finer slices.
        self._check_factor(factor)
        return RangePartitioner(self.n_shards * factor, self.n_docs)

    def parent_of(self, child_shard: int, factor: int) -> int:
        self._check_factor(factor)
        if not 0 <= child_shard < self.n_shards * factor:
            raise ConfigError(f"no child shard {child_shard}")
        return child_shard // factor


def make_partitioner(scheme: str, n_shards: int, n_docs: int) -> Partitioner:
    """Partitioner factory used by ``materialize(..., partitioner=...)``."""
    if scheme == "hash":
        return HashPartitioner(n_shards)
    if scheme == "range":
        return RangePartitioner(n_shards, n_docs)
    raise ConfigError(f"unknown partitioning scheme {scheme!r}")


@dataclass
class ShardPrepared:
    """One shard's slice of a prepared collection.

    ``records`` keep the *global* term ids; ``df``/``ctf``/``doctable``
    /``stats`` here are **shard-local** — they describe what this shard
    actually stores, and summing them across shards reconstructs the
    global statistics exactly (the partitioner round-trip invariant the
    tests assert).  The *serving* view handed to ``materialize`` is
    built by :meth:`serving_view`, which swaps in the global document
    table and global per-term df/ctf so every shard scores with
    collection-wide statistics.
    """

    shard_id: int
    n_shards: int
    doc_ids: List[int]
    records: List[Tuple[int, bytes]]
    df: Dict[int, int] = field(default_factory=dict)
    ctf: Dict[int, int] = field(default_factory=dict)
    doctable: DocTable = field(default_factory=DocTable)
    stats: IndexStats = field(default_factory=IndexStats)

    @property
    def largest_record(self) -> int:
        return max(self.stats.record_sizes) if self.stats.record_sizes else 0

    def serving_view(self, prepared) -> "PreparedCollection":
        """A PreparedCollection materializable as this shard's machine.

        Shard-local records and record-size statistics (Table 2 buffers
        are sized per shard) combined with the *global* document table
        and *global* df/ctf: the inference networks read ``doc_count``,
        ``average_doc_length``, document lengths, and dictionary term
        statistics from the index they are attached to, and those must
        be collection-wide for sharded rankings to be bit-identical to
        the single-disk engine's.
        """
        from ..core.prepared import PreparedCollection

        shard_terms = {term_id for term_id, _record in self.records}
        term_id_of_rank = {
            rank: term_id
            for rank, term_id in prepared.term_id_of_rank.items()
            if term_id in shard_terms
        }
        return PreparedCollection(
            name=f"{prepared.name}#shard{self.shard_id}of{self.n_shards}",
            collection=prepared.collection,
            records=self.records,
            term_id_of_rank=term_id_of_rank,
            rank_of_term_id={t: r for r, t in term_id_of_rank.items()},
            df={t: prepared.df[t] for t in shard_terms},
            ctf={t: prepared.ctf[t] for t in shard_terms},
            doctable=prepared.doctable,
            stats=self.stats,
            # Global max_tf >= any shard-local max_tf, so the pruning
            # bound stays admissible on every shard (like df/ctf, bound
            # metadata is collection-wide so shard rankings agree with
            # the single-disk engine's).
            max_tf={t: prepared.max_tf.get(t, 0) for t in shard_terms},
            terms=prepared.terms,
        )


def partition_prepared(
    prepared, partitioner: Partitioner
) -> List[ShardPrepared]:
    """Split a prepared collection into per-shard slices.

    Every posting is routed by its document's home shard; a term whose
    postings all live elsewhere simply has no record (and no dictionary
    entry) in this shard.  Record encoding is identical to the global
    build's, so the N=1 partition reproduces the unsharded records
    byte for byte.
    """
    n = partitioner.n_shards
    shards = [
        ShardPrepared(shard_id=i, n_shards=n, doc_ids=[], records=[])
        for i in range(n)
    ]

    home = np.zeros(max(prepared.doctable.lengths, default=0) + 1, dtype=np.int64)
    for doc_id, length in prepared.doctable.lengths.items():
        shard_id = partitioner.shard_of(doc_id)
        home[doc_id] = shard_id
        shards[shard_id].doc_ids.append(doc_id)
        shards[shard_id].doctable.add(doc_id, length)
        shards[shard_id].stats.documents += 1

    term_ids, doc_ids, positions = decode_collection(prepared.records)
    owner = home[doc_ids]
    for shard in shards:
        mine = owner == shard.shard_id
        if not mine.any():
            continue
        encoded = encode_collection(term_ids[mine], doc_ids[mine], positions[mine])
        ids = encoded.ranks.tolist()  # global term ids, in record order
        shard.records = [
            (term_id, record) for term_id, (_i, record) in zip(ids, encoded.records)
        ]
        shard.df = dict(zip(ids, encoded.df.tolist()))
        shard.ctf = dict(zip(ids, encoded.ctf.tolist()))
        shard.stats.records = len(ids)
        shard.stats.postings = int(encoded.ctf.sum())
        shard.stats.compressed_bytes = encoded.compressed_bytes
        shard.stats.uncompressed_bytes = encoded.uncompressed_bytes
        shard.stats.record_sizes = encoded.record_sizes.tolist()
    return shards
