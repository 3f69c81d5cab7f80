"""The term cache: byte-budgeted, epoch-aware, tombstone-safe.

The paper's central performance result is that *record caching helps
more* than anything else Mneme does — query streams repeat terms, so
keeping inverted-list records resident pays (Tables 5/6, Figure 2).
The block LRU buffers reproduce that at the bottom of the stack and the
:class:`~repro.serve.cache.ResultCache` lifts it to whole queries; this
module adds the missing middle tier: a cache of the **fetched records**
themselves, so a repeated term skips the store access (SimDisk reads,
Mneme buffer traffic, ``record_lookups``) and its decode charge.

Every payload is the bytes the store returned — never a decoded form —
so both evaluation arms share one payload shape and each decodes a hit
with its own decoder: the fast path through its engine's
:class:`~repro.fastpath.codec.DecodeCache` memo (keyed by those same
bytes, so a hit costs no real decode either), the reference path
through :func:`~repro.inquery.postings.decode_record`.

One :class:`TermCache` serves one replica of one shard (flat systems
are shard 0), and one :class:`TermCacheFleet` owns every cache of a
backend: it creates them, applies ingest and compaction to them, retires
each with its machine (read off the backend's topology), and counts
them.  Entries are keyed
by ``(kind, term)`` where ``kind`` names the read choke point that
produced them:

* ``"arrays"`` — the term-at-a-time provider's whole record, flat and
  sharded, on both arms;
* ``"stream"`` — a DAAT stream recording: the raw pieces one full drain
  of ``stream_postings`` produced, each with the ``resident_bytes`` it
  left behind;
* ``"blocks"`` — the raw bytes of each block the MaxScore
  :class:`~repro.inquery.bounds.PrunableSource` fetched, by block.

Correctness rules (the observational-identity contract):

* **Entries are epoch-raw.**  Payloads are cached *unfiltered*; the
  tombstone filter is applied after every decode, against the union of
  the entry's tombstone snapshot and the index's current set.  Deletes
  therefore never invalidate anything — a tombstoned document is
  filtered out of a hit exactly as it is filtered out of a fresh read.
* **Adds invalidate exactly the mutated terms.**  An ingest batch
  rewrites only the records of the terms it adds postings to;
  :meth:`invalidate_terms` drops those entries (every kind) on the
  owning shard's caches and nothing else.
* **Compaction invalidates nothing.**  Folding tombstones rewrites
  records *without* the dead documents; :meth:`fold_tombstones` merges
  the folded set into every entry's snapshot, so a stale payload
  filtered through its snapshot yields exactly the live postings a
  fresh decode of the folded record yields.  Entries whose physical
  layout matters (``"stream"``, ``"blocks"``) carry a *fingerprint* of
  that layout and simply miss when compaction re-homed or re-split it.
* **Hits are charged a probe.**  Call sites charge
  :data:`TERM_PROBE_MS` on the simulated clock per lookup so latency
  accounting stays honest; the elided work (block reads, decode
  charges, ``record_lookups``) is the measured win.

Eviction is size-weighted LRU under ``byte_budget``
(:class:`~repro.lru.WeightedLRU`), every entry charged its encoded
length; an entry larger than ``max_entry_fraction``
of the budget is never admitted (a single TIPSTER-scale list would
otherwise flush the whole cache for one term).
"""

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..counters import Counters
from ..errors import ConfigError
from ..lru import WeightedLRU

#: Simulated cost of probing the term cache, charged by call sites on
#: every lookup (hit or miss).  Small against even one block read.
TERM_PROBE_MS = 0.002


@dataclass
class TermCacheStats(Counters):
    """Counters over the cache's lifetime (reset only with the cache)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_oversize: int = 0
    invalidated_terms: int = 0
    bytes: int = 0       # currently resident payload bytes
    peak_bytes: int = 0  # high-water mark of ``bytes``

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    payload: object
    dead: frozenset
    fingerprint: Optional[tuple]


class TermCache:
    """Size-weighted LRU of inverted-list records for one shard replica."""

    def __init__(
        self,
        byte_budget: int,
        shard: int = 0,
        max_entry_fraction: float = 0.25,
        record_trace: bool = False,
    ):
        if byte_budget < 1:
            raise ConfigError("term cache byte_budget must be at least 1")
        if not 0.0 < max_entry_fraction <= 1.0:
            raise ConfigError("max_entry_fraction must be in (0, 1]")
        self.byte_budget = byte_budget
        self.shard = shard
        self.max_entry_bytes = min(
            byte_budget, max(1, int(byte_budget * max_entry_fraction))
        )
        #: per-lookup probe charge; engines read it off the attached
        #: cache so :mod:`repro.inquery` never imports the serve layer.
        self.probe_ms = TERM_PROBE_MS
        self.stats = TermCacheStats()
        #: (kind, term) -> entry, weighed by its resident bytes
        self._lru = WeightedLRU(byte_budget, self.max_entry_bytes)
        #: deterministic (op, kind, term) event log for the bench gate;
        #: off by default — it grows without bound.
        self.trace: Optional[List[Tuple[str, str, str]]] = (
            [] if record_trace else None
        )

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key) -> bool:
        """Probe without touching recency or statistics."""
        return key in self._lru

    # -- lookups ---------------------------------------------------------------

    def get(self, kind: str, term, fingerprint: Optional[tuple] = None):
        """The entry for ``(kind, term)`` (freshened to MRU), or ``None``.

        A stored fingerprint that no longer matches the caller's view of
        the record's physical layout (compaction re-split the chunks)
        drops the entry and reports a miss — the caller re-reads and
        re-caches, exactly as if the entry had been evicted.
        """
        self.stats.lookups += 1
        key = (kind, term)
        entry = self._lru.get(key)
        if entry is not None and entry.fingerprint != fingerprint:
            self._lru.pop(key)
            self.stats.bytes = self._lru.held
            entry = None
        if entry is None:
            self.stats.misses += 1
            if self.trace is not None:
                self.trace.append(("miss", kind, str(term)))
            return None
        self.stats.hits += 1
        if self.trace is not None:
            self.trace.append(("hit", kind, str(term)))
        return entry

    def put(
        self,
        kind: str,
        term,
        payload,
        nbytes: int,
        dead: Iterable[int] = (),
        fingerprint: Optional[tuple] = None,
    ) -> bool:
        """Admit a payload of record bytes; returns whether it was cached.

        ``dead`` is the index's tombstone set at fetch time (the
        snapshot hits filter through, unioned with the then-current
        set).  ``nbytes`` is the payload's resident charge — the
        encoded record size, exactly the footprint the elided fetch
        would have made resident.
        """
        entry = _Entry(payload=payload, dead=frozenset(dead), fingerprint=fingerprint)
        evicted = self._lru.put((kind, term), entry, max(1, int(nbytes)))
        if evicted is None:
            self.stats.rejected_oversize += 1
            return False
        self.stats.insertions += 1
        self.stats.evictions += len(evicted)
        if self.trace is not None:
            self.trace.append(("put", kind, str(term)))
            self.trace.extend(
                ("evict", victim_kind, str(victim_term))
                for (victim_kind, victim_term), _victim in evicted
            )
        self.stats.bytes = self._lru.held
        self.stats.peak_bytes = max(self.stats.peak_bytes, self.stats.bytes)
        return True

    # -- index lifecycle hooks -------------------------------------------------

    def invalidate_terms(self, terms: Iterable) -> int:
        """Drop every entry (all kinds) for each mutated term.

        Called once per ingest batch with the owning shard's mutated
        terms; returns how many entries were dropped.
        """
        wanted = set(terms)
        if not wanted:
            return 0
        victims = [key for key in self._lru.keys() if key[1] in wanted]
        for key in victims:
            self._lru.pop(key)
            if self.trace is not None:
                self.trace.append(("invalidate", key[0], str(key[1])))
        self.stats.bytes = self._lru.held
        self.stats.invalidated_terms += len(victims)
        return len(victims)

    def fold_tombstones(self, dead: Iterable[int]) -> None:
        """Compaction folded ``dead`` out of the records: remember them.

        Cached payloads decoded *before* the fold still contain those
        documents; merging the folded set into every entry's snapshot
        keeps post-compaction hits filtering them, with zero entries
        dropped — compaction stays invalidation-free.
        """
        folded = frozenset(dead)
        if not folded:
            return
        for entry in self._lru.values():
            entry.dead = entry.dead | folded

    def clear(self) -> None:
        self._lru.clear()
        self.stats.bytes = 0


def merge_stats(caches: Iterable[TermCache]) -> TermCacheStats:
    """Summed counters across caches."""
    return sum((cache.stats for cache in caches), TermCacheStats())


class TermCacheFleet:
    """Every term cache of one backend, one per (shard, replica) machine.

    The fleet keeps no copy of the topology; it reads
    ``backend.machines()``, where machine identity is each slot's
    version.  A machine's cache is created on first use.  A cache whose
    machine was replaced (re-replication, a rebalance cutover) retires
    before the fleet next lists, invalidates, folds or counts its
    caches, so no ingest or compaction reaches it, and keeps counting
    in :meth:`stats`, so no lifetime counter goes backwards.  A
    ``byte_budget`` of 0 turns caching off.
    """

    def __init__(self, byte_budget: int, backend):
        if byte_budget < 0:
            raise ConfigError("term_cache_bytes must be non-negative (0 = off)")
        self.byte_budget = byte_budget
        self.backend = backend
        #: (shard, replica) -> (cache, the machine it was built for)
        self._held: Dict[Tuple[int, int], Tuple[TermCache, object]] = {}
        #: final counters of every retired cache, in retirement order
        self._retired: List[TermCacheStats] = []

    def cache_for(self, shard: int, replica: int) -> Optional[TermCache]:
        """The cache of the machine at ``(shard, replica)`` now.  Only
        this slot is checked; the fleet-wide calls sweep every slot."""
        if self.byte_budget == 0:
            return None
        slot = (shard, replica)
        machine = self.backend.replica(shard, replica)
        held = self._held.get(slot)
        if held is None or held[1] is not machine:
            if held is not None:
                self._retire(slot)
            held = (TermCache(self.byte_budget, shard=shard), machine)
            self._held[slot] = held
        return held[0]

    def caches(self) -> List[TermCache]:
        """The live caches, in (shard, replica) order, after retiring
        every cache whose machine has left the topology."""
        machines = self.backend.machines()
        for slot, (_cache, machine) in list(self._held.items()):
            if machines.get(slot) is not machine:
                self._retire(slot)
        return [self._held[slot][0] for slot in sorted(self._held)]

    def invalidate(self, mutated_terms_by_shard: Dict[int, Sequence[str]]) -> int:
        """Ingest: drop each shard's mutated terms from its caches;
        returns how many entries were dropped."""
        return sum(
            cache.invalidate_terms(mutated_terms_by_shard.get(cache.shard, ()))
            for cache in self.caches()
        )

    def fold(self, folded_by_shard: Dict[int, Sequence[int]]) -> None:
        """Compaction: merge each shard's folded tombstones into its
        caches' entry snapshots (no entries dropped)."""
        for cache in self.caches():
            cache.fold_tombstones(folded_by_shard.get(cache.shard, ()))

    def _retire(self, slot: Tuple[int, int]) -> None:
        cache, _machine = self._held.pop(slot)
        self._retired.append(replace(cache.stats, bytes=0))

    def stats(self) -> TermCacheStats:
        """Lifetime counters, retired caches included.  ``bytes`` is what
        the live caches hold; ``peak_bytes`` the highest any one cache
        held (each has its own budget)."""
        every = self._retired + [cache.stats for cache in self.caches()]
        lifetime = sum(every, TermCacheStats())
        lifetime.peak_bytes = max((stats.peak_bytes for stats in every), default=0)
        return lifetime
