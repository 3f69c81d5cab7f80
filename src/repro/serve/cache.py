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
* **Isolation** — entries are deep-copied on the way in and on the way
  out.  A caller mutating a served ranking can never corrupt the
  cached copy, and two hits never alias each other.
* **Epochs** — the service bumps :meth:`ResultCache.invalidate` when
  the index changes underneath it (incremental add/remove, rebuild,
  compaction).  The bump clears the table *and* advances the epoch
  stamped into every entry; a lookup that ever finds an entry from an
  older epoch raises
  :class:`~repro.errors.CacheInconsistencyError` — serving it silently
  could rank against an index state that no longer exists.
"""

import copy
import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..counters import Counters
from ..errors import CacheInconsistencyError, ConfigError
from ..inquery.engine import QueryResult


def _frozen_copy(value):
    """Isolated copy of the shapes a result actually carries.

    Results are dataclasses of scalars, strings, and (possibly nested)
    lists/tuples/dicts of the same — no cycles, no exotic objects — so
    a structural recursion over exactly those shapes gives the same
    isolation ``copy.deepcopy`` did without its memo table and
    per-object dispatch (the cache probes this on every hit and put, a
    measured hot path).  Scalars and strings are immutable and shared.
    """
    if isinstance(value, list):
        return [_frozen_copy(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_frozen_copy(item) for item in value)
    if isinstance(value, dict):
        return {key: _frozen_copy(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return set(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _clone_dataclass(value)
    return value


def _clone_dataclass(obj):
    duplicate = copy.copy(obj)
    for spec in dataclasses.fields(obj):
        setattr(duplicate, spec.name, _frozen_copy(getattr(obj, spec.name)))
    return duplicate


def clone_result(result: QueryResult, query_text: Optional[str] = None) -> QueryResult:
    """An isolated copy of a result, optionally re-labelled.

    ``copy.copy`` + per-field copies keep the runtime class, so a
    cached :class:`~repro.inquery.daat.DAATResult` or
    :class:`~repro.shard.merge.ShardedQueryResult` keeps its extra
    fields — a hit is indistinguishable from the evaluation that
    produced the entry, except for the ``query`` text echoing the
    *requesting* spelling rather than the first spelling cached.
    """
    duplicate = _clone_dataclass(result)
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
        self._entries: "OrderedDict[str, Tuple[int, QueryResult]]" = OrderedDict()
        self._epoch = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Probe without touching recency or statistics."""
        return key in self._entries

    @property
    def epoch(self) -> int:
        return self._epoch

    def keys(self):
        """Keys from least to most recently used (eviction order)."""
        return list(self._entries)

    def get(self, key: str, query_text: Optional[str] = None) -> Optional[QueryResult]:
        """The cached result for ``key`` (freshened to MRU), or ``None``.

        ``query_text`` re-labels the returned copy with the requesting
        query's own spelling.
        """
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        epoch, result = entry
        if epoch != self._epoch:
            raise CacheInconsistencyError(
                key=key,
                reason=f"entry epoch {epoch} survived into epoch {self._epoch}",
            )
        self._entries.move_to_end(key)
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
        self._entries[key] = (self._epoch, clone_result(result))
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    def invalidate(self, reason: str = "") -> int:
        """Index changed: advance the epoch and drop every entry.

        Returns how many entries were dropped.  ``reason`` is
        documentation for the caller's logs; the cache itself only
        needs the bump.
        """
        del reason
        self._epoch += 1
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += 1
        return dropped
