"""The ingest pipeline: continuous mutation under epoch isolation.

The paper's central claim for Mneme over the custom B-tree is cheap
*incremental update* of a persistent inverted file.  This module turns
the repo's offline mutation primitives
(:func:`~repro.inquery.indexer.add_documents_incremental`, the
tombstone delete) into a serving-time pipeline: batches of document adds
and deletes apply through the ordinary charged Mneme store — WAL on,
``max_tf``/bound sidecars refreshed with every record they describe so
pruning stays admissible — and each batch publishes a new
:class:`~repro.live.epoch.EpochManager` epoch atomically, sealed by a
WAL epoch-commit marker so crash recovery lands on whole epochs only.

The batch is the unit of work as well as of atomicity: its adds go to
the indexer as one batch (one record pass per distinct term, one store
flush), because nothing flushed before the epoch marker would survive a
crash anyway.

Sharded systems route each mutation to the owning shard's replica group
(every replica applies the identical operation sequence, so mirrors
stay byte-identical — verified per published epoch) while every *other*
shard receives the statistics-only half of the mutation: the global
document table and the global per-term df/ctf that
:meth:`~repro.shard.partition.ShardPrepared.serving_view` bakes into
every shard at build time must keep meaning *global* under mutation, or
sharded document-at-a-time scoring drifts from a stop-the-world
rebuild.

Compaction (:func:`IngestPipeline.compact`) folds tombstones out of the
records (:func:`~repro.inquery.indexer.fold_tombstones`) and then runs
:func:`repro.mneme.gc.compact` on each machine, concurrently with query
traffic on the simulated clock; rewrites are deterministic, so
post-compaction platters are byte-identical across replicas.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, ReplicaFailedError
from ..inquery import (
    DeleteCheck,
    Document,
    add_documents_incremental,
    check_addable,
    fold_tombstones,
    tombstone_document_incremental,
)
from ..inquery.normalize import normalize_term
from ..inquery.text import tokenize
from .epoch import EpochManager, EpochRecord


@dataclass
class IngestReport:
    """One applied batch: what changed and what it cost."""

    epoch: int
    docs_added: int = 0
    docs_deleted: int = 0
    shards_touched: Tuple[int, ...] = ()
    #: Critical-path simulated milliseconds (slowest machine's clock).
    wall_ms: float = 0.0
    #: Sum of simulated milliseconds across every machine touched.
    machine_ms: float = 0.0
    #: Replica groups whose platters were verified byte-identical.
    groups_verified: int = 0
    wal_marked: bool = False
    #: Owning shard -> sorted terms whose records this batch rewrote
    #: (adds only: deletes are tombstones and rewrite nothing).  This is
    #: exactly the invalidation set for the term caches.
    mutated_terms: Dict[int, Tuple[str, ...]] = field(default_factory=dict)


@dataclass
class CompactionSummary:
    """One concurrent compaction pass across every machine."""

    records_rewritten: int = 0
    bytes_reclaimed: int = 0
    segments_copied: int = 0
    tombstones_folded: int = 0
    wall_ms: float = 0.0
    machine_ms: float = 0.0
    groups_verified: int = 0
    #: Owning shard -> sorted documents whose tombstones this pass
    #: folded out of the records.  This is exactly the set the term
    #: caches' entry snapshots must keep filtering.
    folded_tombstones: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def _term_stats(document: Document, index) -> Dict[str, int]:
    """Per-term frequency of a document under the index's normalization."""
    by_term: Dict[str, int] = {}
    for token in document.term_stream(tokenize):
        normalized = normalize_term(token, index.stopwords, index.stem_fn)
        if normalized is not None:
            by_term[normalized] = by_term.get(normalized, 0) + 1
    return by_term


def _shift_global_stats(indexes, document: Document, tfs, sign: int) -> None:
    """The statistics-only half of a mutation, on the shards that do not
    own ``document``: its document-table row and its share of every
    term's global df/ctf, added (``sign`` 1) or taken away (-1)."""
    kept = sum(tfs.values())
    for index in indexes:
        if sign > 0:
            index.doctable.add(document.doc_id, kept, document.name)
        else:
            index.doctable.remove(document.doc_id)
        index.stats.documents += sign
        index.stats.postings += sign * kept
        for term, tf in tfs.items():
            entry = index.dictionary.lookup(term)
            if entry is not None:
                entry.df += sign
                entry.ctf += sign * tf
                index.dictionary.touch(entry)


def _seed_stats(elsewhere: list):
    """Where a term new to the owner's dictionary starts: the global
    ``(df, ctf)`` as any other shard's index carries it, or ``None``.

    Build-time serving views bake global statistics into every shard
    that stores a term and this pipeline keeps them global under
    mutation, so the first entry found is authoritative.  The owner's
    batch has not reached the other shards yet, while every earlier
    owner's has: exactly the count before this mutation.
    """

    def seed(term: str) -> Optional[Tuple[int, int]]:
        for index in elsewhere:
            entry = index.dictionary.lookup(term)
            if entry is not None:
                return entry.df, entry.ctf
        return None

    return seed


class _PendingAdds:
    """A batch's adds as its deletes see them before anything is written
    (:class:`~repro.inquery.DeleteCheck`'s ``after``), worked out at the
    first question: a delete that the indexes as they stand accept
    never asks.

    A term's df grows by the adds that mention it on every machine that
    has an entry for it, and the owner of an add that mentions a new
    term creates the entry, seeded with the global df
    (:func:`_seed_stats`).
    """

    def __init__(self, pipeline: "IngestPipeline", groups, adds: Sequence[Document]):
        self._pipeline = pipeline
        self._groups = groups
        self._adds = adds
        self._mentions: Optional[Dict[str, int]] = None  #: term -> adds
        self._owned: Dict[int, set] = {}  #: shard -> terms its adds mention
        self._owner_of: Dict[int, int] = {}  #: id(index) -> shard

    def _work_out(self) -> None:
        self._mentions = {}
        for shard, group in self._groups.items():
            for machine in group:
                self._owner_of[id(machine.index)] = shard
        for document in self._adds:
            owner = self._pipeline.backend.shard_of_doc(document.doc_id)
            tfs = _term_stats(document, self._groups[owner][0].index)
            self._owned.setdefault(owner, set()).update(tfs)
            for term in tfs:
                self._mentions[term] = self._mentions.get(term, 0) + 1

    def df(self, index, term: str, entry) -> Optional[int]:
        if self._mentions is None:
            self._work_out()
        mentions = self._mentions.get(term, 0)
        if entry is not None:
            return entry.df + mentions
        owner = self._owner_of[id(index)]
        if term not in self._owned.get(owner, ()):
            return None
        seed = _seed_stats(_elsewhere(self._groups, owner))(term)
        return (0 if seed is None else seed[0]) + mentions


def _elsewhere(groups: Dict[int, List[object]], owner: int) -> list:
    """The indexes of every machine outside ``owner``'s replica group."""
    return [
        machine.index
        for shard_id, group in groups.items() if shard_id != owner
        for machine in group
    ]


class IngestPipeline:
    """Applies mutation batches to a flat or sharded live system.

    ``backend`` is an :class:`~repro.core.prepared.IRSystem` or a
    :class:`~repro.shard.system.ShardedIRSystem`; the pipeline reads its
    machines from ``backend.machines()`` at every batch (a flat system
    is the one shard 0 machine), so a rebalance or a re-replication
    between batches needs no notice.  After each published epoch (and
    after compaction) every replica group's platters are block-compared
    — the mirrors-stay-byte-identical contract.
    """

    def __init__(self, backend):
        self.backend = backend
        # Every machine carries the global document table, so any one
        # names the whole corpus.
        self.epochs = EpochManager.for_corpus(
            backend.machines()[(0, 0)].index.doctable.doc_ids()
        )

    # -- machine plumbing -----------------------------------------------------

    def _groups(self) -> Dict[int, List[object]]:
        """Shard id -> the machines of its replica group, as of now."""
        groups: Dict[int, List[object]] = {}
        for (shard_id, _replica_id), machine in self.backend.machines().items():
            groups.setdefault(shard_id, []).append(machine)
        return groups

    def _verify_groups(self, groups: Dict[int, List[object]]) -> int:
        """Block-compare every replica group's platters; returns groups
        checked.  Divergence means a mutation was applied asymmetrically
        — a bug, surfaced as :class:`ReplicaFailedError`."""
        for shard_id, (reference, *mirrors) in groups.items():
            for replica_id, mirror in enumerate(mirrors, start=1):
                if mirror.fs.disk._blocks != reference.fs.disk._blocks:
                    raise ReplicaFailedError(
                        shard_id, replica_id,
                        reason="replica platter diverged after ingest",
                    )
        return sum(len(group) > 1 for group in groups.values())

    # -- mutations ------------------------------------------------------------

    def _batches(self, adds: Sequence[Document]) -> Dict[int, List[Document]]:
        """Owning shard id -> its share of ``adds``, in batch order."""
        batches: Dict[int, List[Document]] = {}
        for document in adds:
            owner = self.backend.shard_of_doc(document.doc_id)
            batches.setdefault(owner, []).append(document)
        return batches

    def _check(
        self,
        groups: Dict[int, List[object]],
        batches: Dict[int, List[Document]],
        adds: Sequence[Document],
        deletes: Sequence[Document],
    ) -> List[Dict[str, int]]:
        """Raise unless the whole batch applies; writes nothing.

        The adds are checked first, then every delete in order against
        the indexes as the adds will leave them.  A delete lowers the
        df of its terms on every machine (the owner's tombstone, the
        statistics-only half elsewhere), so one :class:`DeleteCheck`
        counts the whole run.  Returns each delete's term -> tf.
        """
        for owner, batch in batches.items():
            check_addable(groups[owner][0].index, batch)
        run = DeleteCheck(_PendingAdds(self, groups, adds) if adds else None)
        tfs = []
        for document in deletes:
            owner = self.backend.shard_of_doc(document.doc_id)
            terms = run.check(groups[owner][0].index, document)
            tfs.append({term: tf for term, tf, _entry in terms})
        return tfs

    def _apply_adds(
        self, groups: Dict[int, List[object]], batches: Dict[int, List[Document]]
    ) -> Dict[int, set]:
        """Write checked adds; returns owning shard id -> terms whose
        records the batch rewrote — the term-cache invalidation set.

        Each owner's replicas take that owner's documents as one batch;
        every other shard takes the statistics-only half (document
        table, global df/ctf), owner by owner, so a later owner seeds
        new terms from counts that already include the earlier ones.
        """
        mutated: Dict[int, set] = {}
        for owner, batch in sorted(batches.items()):
            elsewhere = _elsewhere(groups, owner)
            seed = _seed_stats(elsewhere)
            for machine in groups[owner]:
                term_tfs = add_documents_incremental(machine.index, batch, seed)
            mutated[owner] = set().union(*term_tfs)
            for document, tfs in zip(batch, term_tfs):
                _shift_global_stats(elsewhere, document, tfs, 1)
        return mutated

    def _apply_delete(
        self, groups: Dict[int, List[object]], document: Document, tfs
    ) -> int:
        """Route one checked tombstone delete (``tfs``: its term -> tf);
        returns the owning shard id."""
        owner = self.backend.shard_of_doc(document.doc_id)
        for machine in groups[owner]:
            tombstone_document_incremental(machine.index, document)
        _shift_global_stats(_elsewhere(groups, owner), document, tfs, -1)
        return owner

    def apply(
        self,
        adds: Sequence[Document] = (),
        deletes: Sequence[Document] = (),
    ) -> IngestReport:
        """Apply one batch (adds first, then deletes) and publish.

        Deletes take full :class:`Document`\\ s, not bare ids: the token
        stream lets the tombstone delete adjust per-term dictionary
        statistics exactly without decoding a single record — the cheap
        delete the tombstone mechanism exists for.  The whole batch is
        checked before anything is written, so a rejected batch changes
        no machine.  The epoch publishes
        atomically after the whole batch: indexes saved, WAL
        generations sealed by epoch-commit markers, then the in-memory
        epoch bumps.
        A query admitted before this returns sees the previous epoch's
        corpus exactly; one admitted after sees the new corpus exactly.
        """
        groups = self._groups()
        batches = self._batches(adds)
        delete_tfs = self._check(groups, batches, adds, deletes)
        machines = [machine for group in groups.values() for machine in group]
        starts = [(machine, machine.clock.snapshot()) for machine in machines]
        mutated = self._apply_adds(groups, batches)
        touched = set(mutated)
        for document, tfs in zip(deletes, delete_tfs):
            touched.add(self._apply_delete(groups, document, tfs))

        next_epoch = self.epochs.epoch + 1
        wal_marked = False
        for machine in machines:
            machine.index.save()
            mfile = getattr(machine.index.store, "mfile", None)
            if mfile is not None and mfile.wal is not None:
                mfile.wal.seal(next_epoch, mfile.verified_copy)
                wal_marked = True

        record: EpochRecord = self.epochs.publish(
            added=[d.doc_id for d in adds],
            deleted=[d.doc_id for d in deletes],
            shards_touched=sorted(touched),
        )
        assert record.epoch == next_epoch

        groups_verified = self._verify_groups(groups)
        elapsed = [machine.clock.since(start) for machine, start in starts]
        return IngestReport(
            epoch=record.epoch,
            docs_added=len(adds),
            docs_deleted=len(deletes),
            shards_touched=record.shards_touched,
            wall_ms=max((e.wall_ms for e in elapsed), default=0.0),
            machine_ms=sum(e.wall_ms for e in elapsed),
            groups_verified=groups_verified,
            wal_marked=wal_marked,
            mutated_terms={
                shard: tuple(sorted(terms))
                for shard, terms in sorted(mutated.items())
            },
        )

    # -- compaction -----------------------------------------------------------

    def compact(self) -> CompactionSummary:
        """Fold tombstones out and compact every machine's Mneme file.

        Runs on the machines' simulated clocks, so it contends with
        query traffic in simulated time exactly as a background thread
        would.  Rankings are invariant: the postings queries can see do
        not change (the decode-time filter already hid the dead
        documents), and the recomputed exact bounds only *tighten*
        pruning.  Rewrites and the segment-streaming compactor are
        deterministic, so replica platters stay byte-identical.
        """
        machines = self.backend.machines()
        for machine in machines.values():
            if getattr(machine.index.store, "mfile", None) is None:
                raise ConfigError(
                    "compaction requires a Mneme backend "
                    f"(got {machine.config.backend!r})"
                )
        summary = CompactionSummary()
        starts = [(machine, machine.clock.snapshot()) for machine in machines.values()]
        from ..mneme import compact as gc_compact

        for (shard_id, _replica_id), machine in machines.items():
            index = machine.index
            if index.tombstones:  # the same set on every replica
                summary.folded_tombstones[shard_id] = tuple(sorted(index.tombstones))
            summary.tombstones_folded += len(index.tombstones)
            summary.records_rewritten += fold_tombstones(index)
            index.save()
            report = gc_compact(index.store.mfile)
            summary.bytes_reclaimed += report.bytes_reclaimed
            summary.segments_copied += report.segments_copied
        summary.groups_verified = self._verify_groups(self._groups())
        elapsed = [machine.clock.since(start) for machine, start in starts]
        summary.wall_ms = max((e.wall_ms for e in elapsed), default=0.0)
        summary.machine_ms = sum(e.wall_ms for e in elapsed)
        return summary
