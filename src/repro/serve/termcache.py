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
are shard 0).  Entries are keyed by ``(kind, term)`` where ``kind``
names the read choke point that produced them:

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

Eviction is size-weighted LRU under ``byte_budget``, every entry
charged its encoded length; an entry larger than ``max_entry_fraction``
of the budget is never admitted (a single TIPSTER-scale list would
otherwise flush the whole cache for one term).
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..counters import Counters
from ..errors import ConfigError

#: Simulated cost of probing the term cache, charged by call sites on
#: every lookup (hit or miss).  Small against even one block read.
TERM_PROBE_MS = 0.002

#: Entry kinds, one per read choke point (documentation).
KINDS = ("arrays", "stream", "blocks")


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
    nbytes: int
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
        self._entries: "OrderedDict[Tuple[str, object], _Entry]" = OrderedDict()
        #: deterministic (op, kind, term) event log for the bench gate;
        #: off by default — it grows without bound.
        self.trace: Optional[List[Tuple[str, str, str]]] = (
            [] if record_trace else None
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Probe without touching recency or statistics."""
        return key in self._entries

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
        entry = self._entries.get(key)
        if entry is not None and entry.fingerprint != fingerprint:
            self._drop(key)
            entry = None
        if entry is None:
            self.stats.misses += 1
            if self.trace is not None:
                self.trace.append(("miss", kind, str(term)))
            return None
        self._entries.move_to_end(key)
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
        nbytes = max(1, int(nbytes))
        if nbytes > self.max_entry_bytes:
            self.stats.rejected_oversize += 1
            return False
        key = (kind, term)
        if key in self._entries:
            self._drop(key)
        self._entries[key] = _Entry(
            payload=payload,
            nbytes=nbytes,
            dead=frozenset(dead),
            fingerprint=fingerprint,
        )
        self.stats.bytes += nbytes
        self.stats.insertions += 1
        if self.trace is not None:
            self.trace.append(("put", kind, str(term)))
        # An admitted entry fits the budget on its own, so evicting
        # older entries always makes room and the new one survives.
        while self.stats.bytes > self.byte_budget:
            victim = next(iter(self._entries))
            self._drop(victim)
            self.stats.evictions += 1
            if self.trace is not None:
                self.trace.append(("evict", victim[0], str(victim[1])))
        self.stats.peak_bytes = max(self.stats.peak_bytes, self.stats.bytes)
        return True

    def _drop(self, key) -> None:
        entry = self._entries.pop(key)
        self.stats.bytes -= entry.nbytes

    # -- index lifecycle hooks -------------------------------------------------

    def invalidate_terms(self, terms: Iterable) -> int:
        """Drop every entry (all kinds) for each mutated term.

        Called once per ingest batch with the owning shard's mutated
        terms; returns how many entries were dropped.
        """
        wanted = set(terms)
        if not wanted:
            return 0
        victims = [key for key in self._entries if key[1] in wanted]
        for key in victims:
            self._drop(key)
            if self.trace is not None:
                self.trace.append(("invalidate", key[0], str(key[1])))
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
        for entry in self._entries.values():
            entry.dead = entry.dead | folded

    def clear(self) -> None:
        self._entries.clear()
        self.stats.bytes = 0


def merge_stats(caches: Iterable[Optional[TermCache]]) -> TermCacheStats:
    """Summed counters across a fleet of caches (absent caches skipped)."""
    return sum(
        (cache.stats for cache in caches if cache is not None), TermCacheStats()
    )
