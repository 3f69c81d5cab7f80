"""Extensible buffer framework.

Mneme supports "sophisticated buffer management ... by supplying a number
of standard buffer operations (e.g., allocate and free) in a system
defined format.  How these operations are implemented determines the
policies used to manage the buffer.  A pool attaches to a buffer in order
to make use of the buffer" and supplies call-back routines such as a
modified segment save routine.

:class:`Buffer` defines that operation suite.  :class:`LRUBuffer` is the
policy the integrated system uses for all three pools ("least recently
used with a slight optimization"): entries may be *reserved* — pinned in
place — which is how the query-tree scan protects already-resident
objects from a bad replacement choice.  :class:`NullBuffer` retains
nothing and models the "Mneme, No Cache" configuration.

Buffers are sized in bytes, not entries, because the segments they hold
range from 4 KB (small pool) to multi-megabyte large objects.
"""

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

from ..counters import Counters
from ..errors import BufferError_

#: Signature of the modified-segment save callback a pool supplies when it
#: attaches: ``save(key, segment)`` writes the segment back to its file.
SaveCallback = Callable[[Hashable, object], None]


@dataclass
class BufferStats(Counters):
    """Reference counting for one buffer (Table 6's Refs/Hits/Rate)."""

    refs: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.refs if self.refs else 0.0


class Buffer(ABC):
    """The standard buffer operation suite pools program against."""

    def __init__(self) -> None:
        self.stats = BufferStats()
        self._savers: Dict[int, SaveCallback] = {}

    def attach(self, pool_id: int, save: SaveCallback) -> None:
        """Register a pool's modified-segment save callback.

        Keys inserted by a pool must be ``(pool_id, ...)`` tuples so the
        buffer can route dirty evictions back to the owning pool; this is
        what lets several pools share one buffer (the split-buffer
        ablation) without confusion.
        """
        self._savers[pool_id] = save

    def _save(self, key: Hashable, segment: object) -> None:
        pool_id = key[0] if isinstance(key, tuple) else None
        saver = self._savers.get(pool_id)
        if saver is None:
            raise BufferError_(
                f"dirty segment {key!r} evicted but no pool attached for it"
            )
        saver(key, segment)

    @abstractmethod
    def lookup(self, key: Hashable) -> Optional[object]:
        """Return the resident segment or ``None``; counts a reference."""

    @abstractmethod
    def resident(self, key: Hashable) -> bool:
        """Whether the segment is resident, without stats or LRU effects."""

    @abstractmethod
    def insert(self, key: Hashable, segment: object, size: int, dirty: bool = False) -> None:
        """Make a segment resident (may evict others per policy)."""

    @abstractmethod
    def mark_dirty(self, key: Hashable) -> None:
        """Flag a resident segment as modified."""

    @abstractmethod
    def take(self, key: Hashable) -> Optional[object]:
        """Remove and return the resident segment, or ``None``.

        Ownership transfers to the caller (no save-callback fires even if
        the segment was dirty); pools use this when adopting a buffered
        segment as their open segment, so a stale disk copy is never read
        over fresher buffered state.
        """

    @abstractmethod
    def reserve(self, key: Hashable) -> bool:
        """Pin the segment if resident; returns whether it was."""

    @abstractmethod
    def release_reservations(self) -> None:
        """Drop every pin taken by :meth:`reserve`."""

    @abstractmethod
    def flush(self) -> None:
        """Write back every dirty segment (entries stay resident)."""

    @abstractmethod
    def clear(self) -> None:
        """Write back dirty segments and empty the buffer."""


class LRUBuffer(Buffer):
    """Byte-budgeted least-recently-used buffer with reservations.

    Parameters
    ----------
    capacity_bytes:
        Total size budget.  One over-budget entry is tolerated when
        everything else is reserved, mirroring the paper's preference for
        progress over precision in a read-mostly workload.
    """

    def __init__(self, capacity_bytes: int):
        super().__init__()
        if capacity_bytes < 0:
            raise BufferError_("buffer capacity must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Hashable, list]" = OrderedDict()
        # each value is [segment, size, dirty]
        self._reserved: Dict[Hashable, int] = {}
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def lookup(self, key: Hashable) -> Optional[object]:
        self.stats.refs += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def peek(self, key: Hashable) -> Optional[object]:
        """Like :meth:`lookup` without stats or LRU effects (tests)."""
        entry = self._entries.get(key)
        return entry[0] if entry else None

    def resident(self, key: Hashable) -> bool:
        return key in self._entries

    def take(self, key: Hashable) -> Optional[object]:
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._used -= entry[1]
        self._reserved.pop(key, None)
        return entry[0]

    def insert(self, key: Hashable, segment: object, size: int, dirty: bool = False) -> None:
        if key in self._entries:
            old = self._entries[key]
            self._used -= old[1]
            old[0], old[1], old[2] = segment, size, old[2] or dirty
            self._used += size
            self._entries.move_to_end(key)
        else:
            self._entries[key] = [segment, size, dirty]
            self._used += size
            self.stats.insertions += 1
        self._shrink(keep=key)

    def mark_dirty(self, key: Hashable) -> None:
        try:
            self._entries[key][2] = True
        except KeyError:
            raise BufferError_(f"cannot mark absent segment {key!r} dirty") from None

    def reserve(self, key: Hashable) -> bool:
        if key not in self._entries:
            return False
        self._reserved[key] = self._reserved.get(key, 0) + 1
        return True

    def release_reservations(self) -> None:
        self._reserved.clear()

    def reserved(self, key: Hashable) -> bool:
        return self._reserved.get(key, 0) > 0

    def flush(self) -> None:
        for key, entry in self._entries.items():
            if entry[2]:
                self._save(key, entry[0])
                entry[2] = False

    def clear(self) -> None:
        self.flush()
        self._entries.clear()
        self._reserved.clear()
        self._used = 0

    def _shrink(self, keep: Hashable) -> None:
        """Evict LRU unreserved entries until within the byte budget."""
        while self._used > self.capacity_bytes:
            victim = None
            for key in self._entries:
                if key != keep and self._reserved.get(key, 0) == 0:
                    victim = key
                    break
            if victim is None:
                return  # everything reserved: tolerate overflow
            segment, size, dirty = self._entries.pop(victim)
            if dirty:
                self._save(victim, segment)
            self._used -= size
            self.stats.evictions += 1


class PartitionedBuffer(Buffer):
    """A buffer split into size classes, each with its own LRU space.

    The paper: "We experimented with further partitioning the large
    object buffer, but found the best hit rates were achieved with a
    single buffer of the same total size."  This policy reproduces the
    partitioned side of that experiment: segments at or below
    ``threshold_bytes`` live in one LRU partition, larger segments in
    the other, and neither partition can borrow the other's space.
    It also demonstrates the extensibility of the buffer framework —
    the pool attaches to it exactly as it would to a plain LRU buffer.
    """

    def __init__(self, low_capacity_bytes: int, high_capacity_bytes: int, threshold_bytes: int):
        super().__init__()
        if threshold_bytes < 1:
            raise BufferError_("partition threshold must be positive")
        self.threshold_bytes = threshold_bytes
        self._low = LRUBuffer(low_capacity_bytes)
        self._high = LRUBuffer(high_capacity_bytes)
        self._side: Dict[Hashable, LRUBuffer] = {}

    def attach(self, pool_id: int, save: SaveCallback) -> None:
        super().attach(pool_id, save)
        self._low.attach(pool_id, save)
        self._high.attach(pool_id, save)

    @property
    def partitions(self) -> "tuple[LRUBuffer, LRUBuffer]":
        return self._low, self._high

    def lookup(self, key: Hashable) -> Optional[object]:
        self.stats.refs += 1
        side = self._side.get(key)
        segment = None if side is None else side.peek(key)
        if segment is not None:
            side.lookup(key)  # refresh partition LRU order
            self.stats.hits += 1
            return segment
        return None

    def resident(self, key: Hashable) -> bool:
        side = self._side.get(key)
        return side is not None and side.resident(key)

    def take(self, key: Hashable) -> Optional[object]:
        side = self._side.pop(key, None)
        return side.take(key) if side is not None else None

    def insert(self, key: Hashable, segment: object, size: int, dirty: bool = False) -> None:
        side = self._low if size <= self.threshold_bytes else self._high
        previous = self._side.get(key)
        if previous is not None and previous is not side:
            previous.take(key)
        self._side[key] = side
        side.insert(key, segment, size, dirty)
        self._prune_sides()

    def mark_dirty(self, key: Hashable) -> None:
        side = self._side.get(key)
        if side is None or not side.resident(key):
            raise BufferError_(f"cannot mark absent segment {key!r} dirty")
        side.mark_dirty(key)

    def reserve(self, key: Hashable) -> bool:
        side = self._side.get(key)
        return side.reserve(key) if side is not None else False

    def release_reservations(self) -> None:
        self._low.release_reservations()
        self._high.release_reservations()

    def flush(self) -> None:
        self._low.flush()
        self._high.flush()

    def clear(self) -> None:
        self._low.clear()
        self._high.clear()
        self._side.clear()

    def _prune_sides(self) -> None:
        """Drop routing entries for segments the partitions evicted."""
        if len(self._side) > 2 * (len(self._low) + len(self._high) + 1):
            self._side = {
                key: side for key, side in self._side.items() if side.resident(key)
            }


class NullBuffer(Buffer):
    """A buffer that retains nothing: the "Mneme, No Cache" policy.

    Lookups always miss; inserts of clean segments are dropped, inserts
    of dirty segments are saved immediately through the pool callback so
    no modification is ever lost.
    """

    def lookup(self, key: Hashable) -> Optional[object]:
        self.stats.refs += 1
        return None

    def resident(self, key: Hashable) -> bool:
        return False

    def take(self, key: Hashable) -> Optional[object]:
        return None

    def insert(self, key: Hashable, segment: object, size: int, dirty: bool = False) -> None:
        if dirty:
            self._save(key, segment)

    def mark_dirty(self, key: Hashable) -> None:
        raise BufferError_("NullBuffer holds no segments to dirty")

    def reserve(self, key: Hashable) -> bool:
        return False

    def release_reservations(self) -> None:
        return None

    def flush(self) -> None:
        return None

    def clear(self) -> None:
        return None
