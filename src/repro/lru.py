"""Weighted LRU: the one eviction policy of the software caches.

The decode memo (:class:`~repro.fastpath.codec.DecodeCache`), the term
cache (:class:`~repro.serve.termcache.TermCache`) and the result cache
(:class:`~repro.serve.cache.ResultCache`) each compose one
:class:`WeightedLRU` and keep their own statistics, admission rules and
traces.  Mneme's buffers and simdisk's block cache stay separate: they
are the paper's mechanism, with pins, reservations and dirty write-back.

This module imports nothing from the package.
"""

from collections import OrderedDict
from typing import Hashable, List, Optional, Tuple


class WeightedLRU:
    """Values under a weight budget, evicted least-recently-used first.

    An entry heavier than ``max_weight`` (default: the whole budget) is
    refused, so an admitted entry always fits on its own and evicting
    older entries always makes room for it.  Values must not be
    ``None``: :meth:`get` returns ``None`` for a miss.
    """

    def __init__(self, budget: int, max_weight: Optional[int] = None):
        self.budget = budget
        self.max_weight = budget if max_weight is None else min(max_weight, budget)
        self.held = 0  #: total weight of the entries held now
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        """Probe without touching recency."""
        return key in self._entries

    def keys(self) -> List[Hashable]:
        """Keys from least to most recently used (eviction order)."""
        return list(self._entries)

    def values(self) -> List[object]:
        """Values in the same order as :meth:`keys`."""
        return [value for value, _weight in self._entries.values()]

    def get(self, key):
        """The value at ``key``, made most recently used; ``None`` if absent."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, weight: int) -> Optional[List[Tuple[Hashable, object]]]:
        """Admit ``value`` at ``key`` as the most recently used entry.

        Returns ``None`` when ``weight`` exceeds ``max_weight`` (nothing
        changes, not even an entry already at ``key``); otherwise any
        entry at ``key`` is replaced and the evicted ``(key, value)``
        pairs are returned, least recently used first.
        """
        if weight > self.max_weight:
            return None
        if key in self._entries:
            self.pop(key)
        self._entries[key] = (value, weight)
        self.held += weight
        evicted = []
        while self.held > self.budget:
            victim, (old, old_weight) = self._entries.popitem(last=False)
            self.held -= old_weight
            evicted.append((victim, old))
        return evicted

    def pop(self, key):
        """Remove and return the value at ``key`` (``KeyError`` if absent)."""
        value, weight = self._entries.pop(key)
        self.held -= weight
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.held = 0
