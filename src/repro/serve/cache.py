"""The normalized-query result cache: a size-bounded LRU with epochs.

Entries are keyed by the canonical query form
(:func:`~repro.inquery.normalize.canonical_query_key` plus the
engine/top-k discriminator the service prepends), so two differently
spelled queries that provably evaluate identically share one entry.

Three rules keep cached serving inside the bit-identity contract:

* **Admission** — only complete results enter.  A degraded result
  (``completeness < 1``) reflects whatever faults were active when it
  was computed; replaying it after the faults clear would serve stale
  damage, so it is evaluated fresh every time and counted in
  ``rejected_degraded``.
* **Isolation** — entries are copied on the way in and on the way out
  (:func:`clone_result`), but only the mutable containers: the ranking
  list and the dict fields (a sharded result's ``shard_contributions``
  and ``served_by``), one level deep.  Their items are immutable —
  ``(doc, belief)`` tuples of an int and a float, ints, strs — so
  they are shared.  A caller mutating a served ranking or dict can
  never corrupt the cached copy, and two hits never alias each other.
* **Epochs** — the service bumps :meth:`ResultCache.invalidate` when
  the index changes underneath it (incremental add/remove, rebuild,
  compaction).  The bump clears the table *and* advances the epoch
  stamped into every entry; a lookup that ever finds an entry from an
  older epoch raises
  :class:`~repro.errors.CacheInconsistencyError` — serving it silently
  could rank against an index state that no longer exists.
"""

import copy
from dataclasses import dataclass
from typing import Optional

from ..counters import Counters
from ..errors import CacheInconsistencyError, ConfigError
from ..inquery.engine import QueryResult
from ..lru import WeightedLRU


def clone_result(result: QueryResult, query_text: Optional[str] = None) -> QueryResult:
    """An isolated copy of a result, optionally re-labelled.

    ``copy.copy`` keeps the runtime class, so a cached
    :class:`~repro.inquery.daat.DAATResult` or
    :class:`~repro.shard.merge.ShardedQueryResult` keeps its extra
    fields — a hit is indistinguishable from the evaluation that
    produced the entry, except for the ``query`` text echoing the
    *requesting* spelling rather than the first spelling cached.  Only
    the list and dict fields are copied, one level deep (the module's
    isolation rule).
    """
    duplicate = copy.copy(result)
    for name, value in vars(result).items():
        if type(value) is list:
            setattr(duplicate, name, list(value))
        elif type(value) is dict:
            setattr(duplicate, name, dict(value))
    if query_text is not None and query_text != duplicate.query:
        duplicate.query = query_text
    return duplicate


@dataclass
class CacheStats(Counters):
    """Counters over the cache's lifetime (reset only with the cache)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_degraded: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """The fields, with the rounded ``hit_rate`` after ``misses``
        where every committed serve cell carries it."""
        row = list(super().as_dict().items())
        at = 1 + [name for name, _value in row].index("misses")
        row.insert(at, ("hit_rate", round(self.hit_rate, 4)))
        return dict(row)


class ResultCache:
    """Size-bounded LRU over canonical query keys, epoch-invalidated."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ConfigError("result cache capacity must be at least 1")
        self.capacity = capacity
        #: key -> (epoch, result), one unit of weight each
        self._lru = WeightedLRU(capacity)
        self._epoch = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        """Probe without touching recency or statistics."""
        return key in self._lru

    @property
    def epoch(self) -> int:
        return self._epoch

    def keys(self):
        """Keys from least to most recently used (eviction order)."""
        return self._lru.keys()

    def get(self, key: str, query_text: Optional[str] = None) -> Optional[QueryResult]:
        """The cached result for ``key`` (freshened to MRU), or ``None``.

        ``query_text`` re-labels the returned copy with the requesting
        query's own spelling.
        """
        self.stats.lookups += 1
        entry = self._lru.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        epoch, result = entry
        if epoch != self._epoch:
            raise CacheInconsistencyError(
                key=key,
                reason=f"entry epoch {epoch} survived into epoch {self._epoch}",
            )
        self.stats.hits += 1
        return clone_result(result, query_text)

    def put(self, key: str, result: QueryResult) -> bool:
        """Admit a result; returns whether it was cached.

        Degraded (incomplete) results are refused — see the module
        docstring.  Inserting an existing key refreshes its entry and
        recency.
        """
        if result.degraded or result.completeness < 1.0:
            self.stats.rejected_degraded += 1
            return False
        evicted = self._lru.put(key, (self._epoch, clone_result(result)), 1)
        self.stats.insertions += 1
        self.stats.evictions += len(evicted)
        return True

    def invalidate(self, reason: str = "") -> int:
        """Index changed: advance the epoch and drop every entry.

        Returns how many entries were dropped.  ``reason`` is
        documentation for the caller's logs; the cache itself only
        needs the bump.
        """
        del reason
        self._epoch += 1
        dropped = len(self._lru)
        self._lru.clear()
        self.stats.invalidations += 1
        return dropped
