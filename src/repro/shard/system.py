"""The sharded system: N simulated machines serving one collection.

Each shard is a full :class:`~repro.core.prepared.IRSystem` — its own
:class:`~repro.simdisk.SimDisk`, file system, Mneme pools (or B-tree),
per-pool LRU buffers sized by the Table 2 heuristics *from that shard's
own record-size distribution*, and its own simulated clock.  The paper's
single-machine layout is replicated per shard rather than stretched
across shards, which is exactly how one scales the design: the pool and
buffer heuristics are functions of the data a machine stores, so a shard
storing 1/N of the postings sizes its large buffer from *its* largest
record.

Replication extends the same move: a shard may carry ``R`` *mirror*
machines built from the same :class:`~repro.shard.partition.ShardPrepared`
slice.  Because every build is deterministic, a mirror's platter is
byte-identical to the primary's (verified at build time), so the
scheduler may serve any healthy replica and the rankings cannot tell the
difference — failover is gated on bit-identity, not best effort.  A lost
mirror is replaced online (:meth:`ShardedIRSystem.rereplicate`) by a
copy of a surviving replica's platter, streamed on the simulated clock.

The coordinator owns a clock of its own (statistics exchange, merge) and
the administrative up/down state; the scheduler in :mod:`.scheduler`
turns the pieces into query service.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.config import SystemConfig
from ..core.prepared import IRSystem, PreparedCollection, fresh_fs, materialize, open_store
from ..errors import (
    ConfigError,
    RebalanceInProgressError,
    ReplicaFailedError,
    ShardUnavailableError,
)
from ..inquery import DEFAULT_TOP_K, CollectionIndex
from ..simdisk import SimClock
from ..simdisk.image import held_blocks, image_bytes, restore_image
from .partition import Partitioner, make_partitioner, partition_prepared


@dataclass
class ShardedIRSystem:
    """One prepared collection served by N single-machine shards.

    ``replica_groups[s]`` holds shard ``s``'s machines; index 0 is the
    primary and indexes 1..R are mirrors.  All replicas of a shard are
    byte-identical at build; health is tracked per ``(shard, replica)``
    so a single dead disk downgrades one mirror, not the shard.
    ``epoch`` counts topology cutovers (shard splits): schedulers capture
    it at construction and refuse to run across a cutover.

    :meth:`machines` is the one topology view that holders of
    per-machine state read instead of keeping copies.  :meth:`rereplicate`
    and :meth:`cutover` replace machine objects, so machine identity at
    a slot is that slot's version.
    """

    config: SystemConfig
    prepared: PreparedCollection            #: the global (unsharded) preparation
    partitioner: Partitioner
    replica_groups: List[List[IRSystem]]
    clock: SimClock = field(default_factory=SimClock)  #: coordinator clock
    epoch: int = 0                          #: bumped by every rebalance cutover
    _down: Set[int] = field(default_factory=set)
    _replica_down: Set[Tuple[int, int]] = field(default_factory=set)
    _rebalancing: bool = field(default=False)

    def __post_init__(self):
        self.clock = SimClock(cost=self.config.cost)

    @property
    def name(self) -> str:
        return f"{self.config.name}x{self.n_shards}"

    @property
    def n_shards(self) -> int:
        return len(self.replica_groups)

    @property
    def replicas(self) -> int:
        """Mirror count R (replicas beyond the primary)."""
        return max(len(group) for group in self.replica_groups) - 1

    @property
    def shards(self) -> List[IRSystem]:
        """The primary machine of every shard (legacy single-replica view)."""
        return [group[0] for group in self.replica_groups]

    def machines(self) -> Dict[Tuple[int, int], IRSystem]:
        """The current ``{(shard, replica): machine}`` map, in
        (shard, replica) order."""
        return {
            (shard_id, replica_id): machine
            for shard_id, group in enumerate(self.replica_groups)
            for replica_id, machine in enumerate(group)
        }

    def replica(self, shard_id: int, replica_id: int) -> IRSystem:
        self._check_replica(shard_id, replica_id)
        return self.replica_groups[shard_id][replica_id]

    def shard_of_doc(self, doc_id: int) -> int:
        return self.partitioner.shard_of(doc_id)

    # -- administrative shard / replica state ---------------------------------

    def mark_down(self, shard_id: int, replica_id: Optional[int] = None) -> None:
        """Take a shard (or one replica of it) out of service.

        With ``replica_id=None`` the whole shard goes down and queries
        degrade around it; with a replica id only that mirror is
        removed and the scheduler fails over to the survivors.
        """
        if replica_id is None:
            self._check_shard(shard_id)
            self._down.add(shard_id)
        else:
            self._check_replica(shard_id, replica_id)
            self._replica_down.add((shard_id, replica_id))

    def mark_up(self, shard_id: int, replica_id: Optional[int] = None) -> None:
        if replica_id is None:
            self._check_shard(shard_id)
            self._down.discard(shard_id)
        else:
            self._check_replica(shard_id, replica_id)
            self._replica_down.discard((shard_id, replica_id))

    def healthy_replicas(self, shard_id: int) -> List[int]:
        """Replica ids of ``shard_id`` not marked down, lowest first."""
        self._check_shard(shard_id)
        return [
            replica_id
            for replica_id in range(len(self.replica_groups[shard_id]))
            if (shard_id, replica_id) not in self._replica_down
        ]

    def replica_health(self) -> Dict[int, Dict[str, List[int]]]:
        """Per-shard healthy/failed replica ids (for stats surfaces)."""
        report = {}
        for shard_id in range(self.n_shards):
            healthy = self.healthy_replicas(shard_id)
            all_ids = range(len(self.replica_groups[shard_id]))
            report[shard_id] = {
                "healthy": healthy,
                "failed": [r for r in all_ids if r not in healthy],
            }
        return report

    @property
    def shards_down(self) -> Sequence[int]:
        return tuple(sorted(self._down))

    @property
    def replicas_down(self) -> Sequence[Tuple[int, int]]:
        return tuple(sorted(self._replica_down))

    @property
    def live_shards(self) -> List[int]:
        live = [
            i
            for i in range(self.n_shards)
            if i not in self._down and self.healthy_replicas(i)
        ]
        if not live:
            down = self._down or {s for s, _r in self._replica_down}
            raise ShardUnavailableError(
                next(iter(sorted(down))) if down else 0,
                reason="every shard of the index is down",
            )
        return live

    def _check_shard(self, shard_id: int) -> None:
        if not 0 <= shard_id < self.n_shards:
            raise ConfigError(
                f"shard {shard_id} out of range for {self.n_shards} shards"
            )

    def _check_replica(self, shard_id: int, replica_id: int) -> None:
        self._check_shard(shard_id)
        if not 0 <= replica_id < len(self.replica_groups[shard_id]):
            raise ConfigError(
                f"replica {replica_id} out of range for shard {shard_id} "
                f"({len(self.replica_groups[shard_id])} replicas)"
            )

    # -- convenience ----------------------------------------------------------

    def fault_shard(self, shard_id: int, plan, replica_id: int = 0) -> None:
        """Attach a serving-time fault plan to one replica's disk.

        A sharded build takes no fault plan, so this is the one way to
        fault a sharded system — the chaos harness's post-build hook:
        e.g. ``fault_shard(0, FaultPlan.dead_disk())`` kills shard 0's
        primary from the next query on, and ``replica_id=1`` targets the
        first mirror instead.  Pass ``None`` to detach.
        """
        self._check_replica(shard_id, replica_id)
        self.replica_groups[shard_id][replica_id].fs.disk.attach_fault_plan(plan)

    def scheduler(
        self,
        top_k: int = DEFAULT_TOP_K,
        engine: str = "taat",
        prune: str = "off",
        term_caches=None,
    ):
        from .scheduler import ShardScheduler

        return ShardScheduler(
            self, top_k=top_k, engine=engine, prune=prune,
            term_caches=term_caches,
        )

    # -- re-replication -------------------------------------------------------

    def rereplicate(self, shard_id: int, replica_id: int) -> Dict[str, object]:
        """Replace a lost replica with a copy of a surviving one, online.

        The group's other machines save their indexes first (the first
        save of a never-mutated group, else the same bytes again), so the
        survivor's platter holds the whole index.  The survivor is charged
        a scan of the blocks its files hold on its simulated clock (the
        cost a live copy imposes on a machine that keeps serving; free
        blocks are not copied) and a fresh machine a sequential write of
        the same count.  The copy opens its files as
        recovery does, is verified byte-identical to the source, swaps
        into the replica group, and the down-mark clears.

        Raises :class:`RebalanceInProgressError` during a split and
        :class:`ReplicaFailedError` when no healthy source remains or
        the copy diverges from the source.
        """
        if self._rebalancing:
            raise RebalanceInProgressError(
                reason=f"cannot re-replicate shard {shard_id} during a split"
            )
        self._check_replica(shard_id, replica_id)
        sources = [
            r for r in self.healthy_replicas(shard_id) if r != replica_id
        ]
        if not sources:
            raise ReplicaFailedError(
                shard_id, replica_id,
                reason="no healthy source replica to re-replicate from",
            )
        group = self.replica_groups[shard_id]
        for machine in group[:replica_id] + group[replica_id + 1:]:
            machine.index.save()
        source_id = sources[0]
        source = group[source_id]

        # Charge the survivor an ascending scan of the blocks its files
        # hold: live re-replication reads the platter it streams from.
        start = source.clock.snapshot()
        held = held_blocks(source.fs)
        for block_no in held:
            source.fs.disk.read_block(block_no)
        scan = source.clock.since(start)
        blocks = len(held)

        fs = restore_image(image_bytes(source.fs), fresh_fs(self.config))
        cost = self.config.cost
        if blocks:  # the scan's pattern: one seek, then sequential
            fs.disk.clock.charge_io(cost.block_write_random_ms
                                    + cost.block_write_sequential_ms * (blocks - 1))
        store, _keys = open_store(fs, self.config, source.prepared.largest_record)
        if self.config.backend != "btree":  # segment CRCs live in memory only
            store.mfile._crcs = dict(source.index.store.mfile._crcs)
        index = CollectionIndex.open(
            fs, store, source.index.stopwords, source.index.stem_fn,
            source.index.dictionary.bucket_count,
        )
        if fs.disk._blocks != source.fs.disk._blocks:
            raise ReplicaFailedError(
                shard_id, replica_id, reason="copied platter diverged from source"
            )
        group[replica_id] = IRSystem(
            self.config, fs, fs.disk.clock, index, source.prepared
        )
        self._replica_down.discard((shard_id, replica_id))
        return {
            "shard": shard_id,
            "replica": replica_id,
            "source_replica": source_id,
            "blocks_scanned": blocks,
            "source_scan_ms": scan.wall_ms,
            "verified": True,
        }

    # -- rebalance hooks (driven by shard.rebalance) --------------------------

    def begin_rebalance(self) -> None:
        if self._rebalancing:
            raise RebalanceInProgressError(reason="a split is already running")
        self._rebalancing = True

    def abort_rebalance(self) -> None:
        self._rebalancing = False

    def cutover(
        self,
        partitioner: Partitioner,
        replica_groups: List[List[IRSystem]],
        prepared: PreparedCollection,
    ) -> None:
        """Atomically switch to a new topology (called at a wave boundary).

        ``prepared`` is the corpus the new machines were built from (the
        live one: it includes every ingested batch).  Health state
        resets — the new machines are all freshly built and verified —
        and ``epoch`` bumps so any scheduler still holding the old
        topology refuses to run against the new one.
        """
        self.partitioner = partitioner
        self.replica_groups = replica_groups
        self.prepared = prepared
        self._down = set()
        self._replica_down = set()
        self._rebalancing = False
        self.epoch += 1


def materialize_sharded(
    prepared: PreparedCollection,
    config: SystemConfig,
    n_shards: int,
    partitioner: Union[str, Partitioner] = "hash",
    replicas: int = 0,
) -> ShardedIRSystem:
    """Partition a prepared collection and build one machine per shard.

    Every shard build goes through the ordinary
    :func:`~repro.core.prepared.materialize`, so a shard is
    indistinguishable from a small single-disk system — same pools, same
    buffer heuristics, same dictionary construction.  The per-shard
    prepared view carries the *global* document table and per-term
    df/ctf (see :meth:`~repro.shard.partition.ShardPrepared.serving_view`),
    which is what keeps sharded scoring bit-identical to the single-disk
    engine.

    ``replicas=R`` additionally builds R mirror machines per shard from
    the same slice, and each mirror's platter is verified byte-identical
    against the primary's before the system is returned; a divergence
    raises :class:`ReplicaFailedError` — it would mean the build is
    nondeterministic, which breaks the failover bit-identity contract.
    Every machine is built fault-free; serving-time faults attach after
    the build through :meth:`ShardedIRSystem.fault_shard`.
    """
    if replicas < 0:
        raise ConfigError(f"replicas must be >= 0, got {replicas}")
    if isinstance(partitioner, str):
        partitioner = make_partitioner(
            partitioner, n_shards, len(prepared.doctable)
        )
    elif partitioner.n_shards != n_shards:
        raise ConfigError(
            f"partitioner is for {partitioner.n_shards} shards, asked for {n_shards}"
        )
    replica_groups: List[List[IRSystem]] = []
    for sp in partition_prepared(prepared, partitioner):
        view = sp.serving_view(prepared)
        group = [materialize(view, config)]
        for replica_id in range(1, replicas + 1):
            mirror = materialize(view, config)
            if mirror.fs.disk._blocks != group[0].fs.disk._blocks:
                raise ReplicaFailedError(
                    sp.shard_id, replica_id,
                    reason="mirror platter diverged from primary at build",
                )
            group.append(mirror)
        replica_groups.append(group)
    return ShardedIRSystem(
        config=config,
        prepared=prepared,
        partitioner=partitioner,
        replica_groups=replica_groups,
    )
