"""Deterministic online shard splitting (2 -> 4) with atomic cutover.

A split refines the partitioner (:meth:`Partitioner.refine`): every new
shard's documents come from exactly one old shard, so re-partitioning
never moves a document between surviving shards — each old platter
streams into ``factor`` child platters.  The streaming is *live*: every
stored record of each old shard is fetched from a healthy replica
through its ordinary store (charged to that machine's simulated clock,
buffers and all — the survivor pays for the copy while it keeps serving
queries).  The streamed records are the corpus as served now, ingested
batches and tombstones included: dead postings are dropped, each term's
postings are joined into one live preparation, and
:func:`~repro.shard.partition.partition_prepared` slices it for the
children exactly as a fresh build would.

Because record decode/encode and build order are deterministic, the
child platters are **byte-identical** to a stop-the-world rebuild of the
live corpus at the refined shard count — the failover gate asserts this
with nothing ingested, which is what makes the mid-traffic split
observationally invisible: any query served after the cutover ranks
exactly as it would on a fresh N·factor system.

The cutover itself (:meth:`ShardedIRSystem.cutover`) swaps partitioner,
replica groups, prepared slices and the live preparation in one step at
a wave boundary and bumps the topology epoch; schedulers built against
the old topology refuse to run
(:class:`~repro.errors.RebalanceInProgressError`) instead of silently
mixing layouts, and the serving layer invalidates its result cache on
the epoch bump.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.prepared import PreparedCollection, materialize
from ..errors import BadBlockError, ReplicaFailedError
from ..fastpath.build import decode_collection, encode_collection
from ..inquery import DocTable, IndexStats
from .partition import partition_prepared
from .system import ShardedIRSystem


@dataclass
class SplitReport:
    """What a split did, for benches and the CLI."""

    factor: int
    old_shards: int
    new_shards: int
    replicas: int
    records_streamed: int
    postings_moved: int
    #: old shard -> replica the stream read from
    source_replicas: Dict[int, int] = field(default_factory=dict)
    #: old shard -> simulated ms the stream charged that replica
    stream_ms: Dict[int, float] = field(default_factory=dict)
    mirrors_verified: int = 0
    epoch: int = 0

    def as_dict(self) -> dict:
        return {
            "factor": self.factor,
            "old_shards": self.old_shards,
            "new_shards": self.new_shards,
            "replicas": self.replicas,
            "records_streamed": self.records_streamed,
            "postings_moved": self.postings_moved,
            "source_replicas": {
                str(k): v for k, v in sorted(self.source_replicas.items())
            },
            "mirrors_verified": self.mirrors_verified,
            "epoch": self.epoch,
        }


def _stream_shard(
    sharded: ShardedIRSystem,
    shard_id: int,
    term_ids: Dict[str, int],
    report: SplitReport,
) -> List[Tuple[str, bytes]]:
    """Stream one old shard's ``(term, record)`` pairs from a surviving
    replica, retrying the next healthy replica if the source dies.

    Records go in ``term_ids`` order, then terms the corpus gained by
    ingest in term order: the order their collection-wide ids take.
    """
    sources = list(sharded.healthy_replicas(shard_id))
    last_error = None
    for source_id in sources:
        source = sharded.replica(shard_id, source_id)
        stored = sorted(
            (term_ids.get(entry.term, len(term_ids) + 1), entry.term,
             entry.storage_key)
            for entry in source.index.dictionary.entries()
            if entry.storage_key
        )
        start = source.clock.snapshot()
        try:
            records = [
                (term, source.index.store.fetch(key))
                for _order, term, key in stored
            ]
        except BadBlockError as error:
            # This survivor is dying too: mark it, try the next one.
            last_error = error
            sharded.mark_down(shard_id, replica_id=source_id)
            continue
        report.source_replicas[shard_id] = source_id
        report.stream_ms[shard_id] = source.clock.since(start).wall_ms
        report.records_streamed += len(records)
        return records
    raise ReplicaFailedError(
        shard_id, sources[-1] if sources else 0,
        reason=f"no healthy replica survived to stream the split: {last_error}",
    )


def _live_collection(
    sharded: ShardedIRSystem,
    streamed: List[Tuple[str, bytes]],
    term_ids: Dict[str, int],
) -> PreparedCollection:
    """The corpus the machines serve now, as one preparation.

    ``streamed`` holds every old shard's records.  Terms of the
    preparation keep their ids (``term_ids``); a term an ingest added (a
    shard dictionary numbers it locally) gets the next free one, in term
    order.  Postings of tombstoned documents (no longer in the document
    table) are dropped and each term's postings are joined across
    shards, so the result is what preparing the live corpus from scratch
    yields: with nothing ingested, the build's own preparation, record
    for record.
    """
    prepared = sharded.prepared
    term_ids = dict(term_ids)
    for term in sorted({term for term, _record in streamed} - term_ids.keys()):
        term_ids[term] = len(term_ids) + 1
    doctable = DocTable(dict(sharded.machines()[(0, 0)].index.doctable.lengths))
    ids, docs, positions = decode_collection(
        [(term_ids[term], record) for term, record in streamed]
    )
    live = np.isin(docs, np.fromiter(doctable.lengths, dtype=np.int64))
    ids, docs, positions = ids[live], docs[live], positions[live]
    # Each (term, document) pair comes from one shard with its positions
    # in order, so a stable sort on (term, doc) is the indexing sort.
    order = np.lexsort((docs, ids))
    encoded = encode_collection(ids[order], docs[order], positions[order])
    stored = encoded.ranks.tolist()  # term ids, in record order
    top_rank = max(prepared.term_id_of_rank, default=0)
    rank_of = {
        term_id: prepared.rank_of_term_id.get(term_id, top_rank + term_id)
        for term_id in stored
    }
    return PreparedCollection(
        name=prepared.name,
        collection=prepared.collection,
        records=[
            (term_id, record)
            for term_id, (_n, record) in zip(stored, encoded.records)
        ],
        term_id_of_rank={rank: term_id for term_id, rank in rank_of.items()},
        rank_of_term_id=rank_of,
        df=dict(zip(stored, encoded.df.tolist())),
        ctf=dict(zip(stored, encoded.ctf.tolist())),
        doctable=doctable,
        stats=IndexStats(
            documents=len(doctable),
            postings=int(encoded.ctf.sum()),
            records=len(stored),
            compressed_bytes=encoded.compressed_bytes,
            uncompressed_bytes=encoded.uncompressed_bytes,
            record_sizes=encoded.record_sizes.tolist(),
        ),
        max_tf=dict(zip(stored, encoded.max_tf.tolist())),
        terms=list(term_ids),
    )


def split_shards(sharded: ShardedIRSystem, factor: int = 2) -> SplitReport:
    """Split every shard into ``factor`` children and cut over atomically.

    The old system keeps serving until the cutover (the caller picks the
    wave boundary); on return ``sharded`` *is* the new topology — same
    replica count, fresh health state, ``epoch`` bumped.  Raises
    :class:`~repro.errors.RebalanceInProgressError` if a split is
    already running, and leaves the old topology untouched on any
    failure.
    """
    sharded.begin_rebalance()
    try:
        new_part = sharded.partitioner.refine(factor)
        replicas = sharded.replicas
        report = SplitReport(
            factor=factor,
            old_shards=sharded.n_shards,
            new_shards=new_part.n_shards,
            replicas=replicas,
            records_streamed=0,
            postings_moved=0,
        )
        term_ids = {term: n for n, term in enumerate(sharded.prepared.terms, 1)}
        streamed = [
            record
            for shard_id in range(sharded.n_shards)
            for record in _stream_shard(sharded, shard_id, term_ids, report)
        ]
        live = _live_collection(sharded, streamed, term_ids)
        report.postings_moved = sum(live.df.values())
        children = partition_prepared(live, new_part)

        groups = []
        for child in children:
            view = child.serving_view(live)
            primary = materialize(view, sharded.config)
            group = [primary]
            for replica_id in range(1, replicas + 1):
                mirror = materialize(view, sharded.config)
                if mirror.fs.disk._blocks != primary.fs.disk._blocks:
                    raise ReplicaFailedError(
                        child.shard_id, replica_id,
                        reason="split mirror diverged from child primary",
                    )
                report.mirrors_verified += 1
                group.append(mirror)
            groups.append(group)
    except Exception:
        sharded.abort_rebalance()
        raise
    sharded.cutover(new_part, groups, live)
    report.epoch = sharded.epoch
    return report
