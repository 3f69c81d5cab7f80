"""LRU block cache.

Used in two places: as the simulated ULTRIX file-system buffer cache (below
every storage backend, exactly as in the paper's platform), and as the
B-tree package's "limited and unsophisticated" node cache.

The cache maps arbitrary hashable keys to block payloads and maintains
strict LRU order.  Entries may be *pinned*; pinned entries are never chosen
for eviction.  Writes are handled write-through by the callers, so the
cache itself never holds dirty data.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional

from ..counters import Counters


@dataclass
class CacheStats(Counters):
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    @property
    def references(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        refs = self.references
        return self.hits / refs if refs else 0.0


class BlockCache:
    """A fixed-capacity LRU cache of block payloads.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  Zero disables caching entirely
        (every :meth:`get` is a miss and :meth:`put` is a no-op).
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._pins: Dict[Hashable, int] = {}
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries.keys())

    def get(self, key: Hashable) -> Optional[bytes]:
        """Return the cached payload or ``None``, updating LRU order."""
        data = self._entries.get(key)
        if data is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return data

    def peek(self, key: Hashable) -> Optional[bytes]:
        """Return the cached payload without touching LRU order or stats."""
        return self._entries.get(key)

    def put(self, key: Hashable, data: bytes) -> None:
        """Insert or refresh an entry, evicting LRU unpinned entries."""
        if self._capacity == 0:
            return
        if key in self._entries:
            self._entries[key] = data
            self._entries.move_to_end(key)
            return
        self._evict_for_space()
        self._entries[key] = data
        self.stats.insertions += 1

    def pin(self, key: Hashable) -> None:
        """Protect an entry from eviction; pins nest."""
        if key not in self._entries:
            raise KeyError(f"cannot pin absent key {key!r}")
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: Hashable) -> None:
        """Release one pin on an entry."""
        count = self._pins.get(key, 0)
        if count <= 1:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count - 1

    def pinned(self, key: Hashable) -> bool:
        return self._pins.get(key, 0) > 0

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry if present (and any pins on it)."""
        self._entries.pop(key, None)
        self._pins.pop(key, None)

    def clear(self) -> None:
        """Drop every entry — the paper's 32 MB "chill file" effect."""
        self._entries.clear()
        self._pins.clear()

    def _evict_for_space(self) -> None:
        """Make room for one insertion, skipping pinned entries."""
        while len(self._entries) >= self._capacity:
            victim = None
            for key in self._entries:
                if self._pins.get(key, 0) == 0:
                    victim = key
                    break
            if victim is None:
                # Everything pinned: allow temporary overflow rather than
                # deadlock; the next unpinned insertion will shrink us back.
                return
            del self._entries[victim]
            self.stats.evictions += 1
