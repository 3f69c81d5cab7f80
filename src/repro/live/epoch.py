"""Index epochs: snapshot isolation for continuous ingest.

The serving cache already versions itself with an epoch counter
(:class:`~repro.serve.cache.ResultCache`): every entry remembers the
epoch it was computed in and a bump invalidates the lot.  This module
generalises that mechanism from *cache* state to *index* state.  An
:class:`EpochManager` numbers the published states of a (possibly
sharded) live index: epoch 0 is the materialized base corpus, and every
ingest batch — document adds and tombstone deletes applied atomically —
publishes the next epoch.

A query is pinned to the epoch current at admission, and the contract
(gated by ``repro.bench.ingest``) is that its results are bit-identical
to a stop-the-world rebuild of the corpus as of that epoch.  The
manager keeps, per epoch, the frozen set of live document ids — exactly
the input such a rebuild needs — and which shards the publication
touched.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..errors import IndexError_


@dataclass(frozen=True)
class EpochRecord:
    """One published index state."""

    epoch: int
    live_docs: FrozenSet[int]
    added: Tuple[int, ...] = ()      #: doc ids added by this publication
    deleted: Tuple[int, ...] = ()    #: doc ids tombstoned by this publication
    shards_touched: Tuple[int, ...] = ()


@dataclass
class EpochManager:
    """Monotonic index epochs over one live system's corpus state.

    ``epoch`` counts every publication; each :class:`EpochRecord` names
    the shards it touched.  The manager holds no topology of its own, so
    a rebalance between publications changes nothing here.  History is
    kept for every epoch (bounded by the run length of an ingest
    workload), because the fresh-rebuild comparator needs the
    live-document set of *past* epochs — a pinned query may be checked
    long after later batches published.
    """

    _epoch: int = 0
    _live: set = field(default_factory=set)
    _history: Dict[int, EpochRecord] = field(default_factory=dict)

    def __post_init__(self):
        self._history[0] = EpochRecord(
            epoch=0, live_docs=frozenset(self._live)
        )

    @classmethod
    def for_corpus(cls, doc_ids: Iterable[int]) -> "EpochManager":
        """Epoch 0 over an already-materialized base corpus."""
        return cls(_live=set(doc_ids))

    @property
    def epoch(self) -> int:
        return self._epoch

    def pin(self) -> int:
        """The epoch a query admitted *now* is served under."""
        return self._epoch

    def live_docs(self, epoch: Optional[int] = None) -> FrozenSet[int]:
        """The live document ids as of ``epoch`` (default: current).

        This is the corpus a stop-the-world rebuild at that epoch would
        index, i.e. the bit-identity reference for any query pinned
        there.
        """
        record = self.record(epoch)
        return record.live_docs

    def record(self, epoch: Optional[int] = None) -> EpochRecord:
        if epoch is None:
            epoch = self._epoch
        try:
            return self._history[epoch]
        except KeyError:
            raise IndexError_(
                f"epoch {epoch} was never published (current: {self._epoch})"
            ) from None

    def publish(
        self,
        added: Sequence[int] = (),
        deleted: Sequence[int] = (),
        shards_touched: Sequence[int] = (),
    ) -> EpochRecord:
        """Atomically advance to the next epoch.

        ``added``/``deleted`` are the doc ids of the batch just applied;
        they must be consistent with the current live set (an inherited
        invariant violation here means a caller published out of order).
        """
        for doc_id in added:
            if doc_id in self._live:
                raise IndexError_(
                    f"epoch publish: doc {doc_id} added but already live"
                )
        for doc_id in deleted:
            if doc_id not in self._live:
                raise IndexError_(
                    f"epoch publish: doc {doc_id} deleted but not live"
                )
        self._live.update(added)
        self._live.difference_update(deleted)
        self._epoch += 1
        record = EpochRecord(
            epoch=self._epoch,
            live_docs=frozenset(self._live),
            added=tuple(added),
            deleted=tuple(deleted),
            shards_touched=tuple(sorted(set(shards_touched))),
        )
        self._history[self._epoch] = record
        return record
