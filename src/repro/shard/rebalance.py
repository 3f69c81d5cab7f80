"""Deterministic online shard splitting (2 -> 4) with atomic cutover.

A split refines the partitioner (:meth:`Partitioner.refine`): every new
shard's documents come from exactly one old shard, so re-partitioning
never moves a document between surviving shards — each old platter
streams into ``factor`` child platters and nothing else changes.  The
streaming is *live*: records are fetched from a healthy replica of each
old shard through its ordinary store (charged to that machine's
simulated clock, buffers and all — the survivor pays for the copy while
it keeps serving queries), routed by the refined partitioner, and
re-encoded into child :class:`~repro.shard.partition.ShardPrepared`
slices with exactly the bookkeeping
:func:`~repro.shard.partition.partition_prepared` uses.

Because record decode/encode and build order are deterministic, the
child platters are **byte-identical** to a stop-the-world rebuild at the
refined shard count — the failover gate asserts this, which is what
makes the mid-traffic split observationally invisible: any query served
after the cutover ranks exactly as it would on a fresh N·factor system.

The cutover itself (:meth:`ShardedIRSystem.cutover`) swaps partitioner,
replica groups, and prepared slices in one step at a wave boundary and
bumps the topology epoch; schedulers built against the old topology
refuse to run (:class:`~repro.errors.RebalanceInProgressError`) instead
of silently mixing layouts, and the serving layer invalidates its result
cache on the epoch bump.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.prepared import materialize
from ..errors import BadBlockError, ConfigError, ReplicaFailedError
from ..inquery import decode_record, encode_record, uncompressed_size
from .partition import ShardPrepared
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


def _route_docs(
    sharded: ShardedIRSystem, new_part, factor: int
) -> List[ShardPrepared]:
    """Build the children's document-side bookkeeping, verifying that the
    refined partitioner really refines the current one for every doc."""
    new_n = new_part.n_shards
    children = [
        ShardPrepared(shard_id=c, n_shards=new_n, doc_ids=[], records=[])
        for c in range(new_n)
    ]
    for doc_id, length in sharded.prepared.doctable.lengths.items():
        child = new_part.shard_of(doc_id)
        parent = sharded.partitioner.parent_of(child, factor)
        if parent != sharded.partitioner.shard_of(doc_id):
            raise ConfigError(
                f"partitioner refinement violated: doc {doc_id} moves from "
                f"shard {sharded.partitioner.shard_of(doc_id)} to child "
                f"{child} of shard {parent}"
            )
        children[child].doc_ids.append(doc_id)
        children[child].doctable.add(doc_id, length)
        children[child].stats.documents += 1
    return children


def _stream_shard(
    sharded: ShardedIRSystem,
    shard_id: int,
    new_part,
    children: List[ShardPrepared],
    report: SplitReport,
) -> None:
    """Stream one old shard's records from a surviving replica into its
    children, retrying the next healthy replica if the source dies."""
    prepared = sharded.prepared
    sources = list(sharded.healthy_replicas(shard_id))
    last_error = None
    for source_id in sources:
        source = sharded.replica(shard_id, source_id)
        routed: List[List[tuple]] = []  # per record: (term_id, child slices)
        start = source.clock.snapshot()
        try:
            for term_id, _record in sharded.shard_prepared[shard_id].records:
                term = prepared.terms[term_id - 1]
                entry = source.index.term_entry(term)
                data = source.index.store.fetch(entry.storage_key)
                slices: Dict[int, list] = {}
                for posting in decode_record(data):
                    child = new_part.shard_of(posting[0])
                    slices.setdefault(child, []).append(posting)
                routed.append((term_id, slices))
        except BadBlockError as error:
            # This survivor is dying too: mark it, try the next one.
            last_error = error
            sharded.mark_down(shard_id, replica_id=source_id)
            continue
        report.source_replicas[shard_id] = source_id
        report.stream_ms[shard_id] = source.clock.since(start).wall_ms
        for term_id, slices in routed:
            for child_id in sorted(slices):
                postings = slices[child_id]
                child = children[child_id]
                encoded = encode_record(postings)
                child.records.append((term_id, encoded))
                child.df[term_id] = len(postings)
                child.ctf[term_id] = sum(len(p) for _d, p in postings)
                child.stats.records += 1
                child.stats.postings += sum(len(p) for _d, p in postings)
                child.stats.compressed_bytes += len(encoded)
                child.stats.uncompressed_bytes += uncompressed_size(postings)
                child.stats.record_sizes.append(len(encoded))
                report.postings_moved += len(postings)
            report.records_streamed += 1
        return
    raise ReplicaFailedError(
        shard_id, sources[-1] if sources else 0,
        reason=f"no healthy replica survived to stream the split: {last_error}",
    )


def split_shards(
    sharded: ShardedIRSystem, factor: int = 2, verify_replicas: bool = True
) -> SplitReport:
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
        children = _route_docs(sharded, new_part, factor)
        for shard_id in range(sharded.n_shards):
            _stream_shard(sharded, shard_id, new_part, children, report)

        groups = []
        for child in children:
            view = child.serving_view(sharded.prepared)
            primary = materialize(view, sharded.config)
            group = [primary]
            for replica_id in range(1, replicas + 1):
                mirror = materialize(view, sharded.config)
                if verify_replicas:
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
    sharded.cutover(new_part, groups, children)
    report.epoch = sharded.epoch
    return report
