"""Deterministic fault plans for the simulated disk.

A :class:`FaultPlan` is a schedule of :class:`FaultEvent`\\ s attached to
a :class:`~repro.simdisk.disk.SimDisk`.  Each event names a *channel*
(read, write, or allocate), an eligible-operation index at which it
triggers, and how many consecutive operations it affects.  Because the
simulated stack is deterministic, "the 1 243rd eligible read" identifies
the same physical block on every run with the same build — which is what
makes a seeded chaos run reproducible and lets the harness assert
bit-identical degraded results for a fixed seed.

Fault kinds
-----------

``transient-read``
    The block transfer fails (:class:`~repro.errors.BadBlockError`); the
    head still moved and the wasted rotation is charged to the clock.
    Once triggered the event *sticks to the block it hit* for its
    remaining ``times`` — modelling a sector that stays unreadable
    across immediate retries, then recovers (or, with ``times`` at or
    above the retry budget, stays dead until rewritten).
``bit-flip``
    One stored bit is flipped *at rest* before the read returns, i.e.
    silent corruption the disk itself does not notice.  Only per-segment
    checksums above can catch it.
``read-latency`` / ``write-latency``
    The operation succeeds but costs ``extra_ms`` more simulated I/O
    wait — a degraded actuator or a deep controller queue.
``torn-write``
    The tail half of the written block is replaced with zeroes on the
    platter while the write reports success (the classic torn page the
    redo log exists for).
``disk-full``
    The scheduled allocation raises
    :class:`~repro.errors.DiskFullError` — mid-build space exhaustion.

Scoping: a plan built with ``eligible_blocks`` only counts (and only
faults) operations on those physical blocks, so a harness can aim
faults at one file's data while leaving auxiliary tables, dictionaries,
and the redo log untouched.
"""

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from ..counters import Counters
from . import state as _state

#: Event kind -> operation channel it triggers on.
CHANNELS: Dict[str, str] = {
    "transient-read": "read",
    "bit-flip": "read",
    "read-latency": "read",
    "torn-write": "write",
    "write-latency": "write",
    "disk-full": "alloc",
}


@dataclass
class FaultEvent:
    """One scheduled fault.

    ``at_op`` is the 0-based index on the event's channel counting only
    *eligible* operations (see plan scoping).  ``times`` > 1 makes the
    event sticky: after triggering it keeps firing on re-accesses of the
    same block until its budget is spent.
    """

    kind: str
    at_op: int
    times: int = 1
    extra_ms: float = 0.0     #: additional simulated wait (latency kinds)
    bit: int = 0              #: which bit of the block to flip (bit-flip)
    #: Sticky events (the default) latch onto the block they first hit
    #: and keep firing only on re-accesses of that block.  Non-sticky
    #: events fire on *consecutive eligible operations* regardless of
    #: block — ``times`` large enough models a dead actuator that fails
    #: every transfer (see :meth:`FaultPlan.dead_disk`).
    sticky: bool = True
    fired: int = 0            #: firings so far (mutated by the plan)
    bound_block: Optional[int] = None  #: block a sticky event latched onto

    def __post_init__(self):
        if self.kind not in CHANNELS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_op < 0 or self.times < 1:
            raise ValueError("at_op must be >= 0 and times >= 1")

    @property
    def channel(self) -> str:
        return CHANNELS[self.kind]

    @property
    def spent(self) -> bool:
        return self.fired >= self.times


@dataclass
class FaultStats(Counters):
    """What a plan actually did, per kind."""

    transient_reads: int = 0
    bit_flips: int = 0
    read_latencies: int = 0
    torn_writes: int = 0
    write_latencies: int = 0
    disk_fulls: int = 0

    _BY_KIND = {
        "transient-read": "transient_reads",
        "bit-flip": "bit_flips",
        "read-latency": "read_latencies",
        "torn-write": "torn_writes",
        "write-latency": "write_latencies",
        "disk-full": "disk_fulls",
    }

    def count(self, kind: str) -> None:
        name = self._BY_KIND[kind]
        setattr(self, name, getattr(self, name) + 1)

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())


class FaultPlan:
    """A deterministic schedule of faults over eligible disk operations."""

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        eligible_blocks: Optional[Set[int]] = None,
        label: str = "",
    ):
        self.events: List[FaultEvent] = list(events)
        #: Free-form tag naming the victim (e.g. ``"shard0/replica1"``),
        #: surfaced by chaos harnesses and failover traces.
        self.label = label
        #: Physical blocks the plan applies to (``None`` = every block).
        self.eligible_blocks = (
            None if eligible_blocks is None else set(eligible_blocks)
        )
        #: Eligible operations seen so far, per channel.  These advance
        #: even for an empty plan, so an event-free "probe" plan measures
        #: a run's eligible-operation horizon.
        self.ops: Dict[str, int] = {"read": 0, "write": 0, "alloc": 0}
        self.stats = FaultStats()

    # -- hooks called by SimDisk ------------------------------------------------

    def observe_read(self, block_no: int) -> Optional[FaultEvent]:
        return self._observe("read", block_no)

    def observe_write(self, block_no: int) -> Optional[FaultEvent]:
        return self._observe("write", block_no)

    def observe_alloc(self) -> Optional[FaultEvent]:
        return self._observe("alloc", None)

    def _observe(self, channel: str, block_no: Optional[int]) -> Optional[FaultEvent]:
        if not _state.enabled():
            return None
        if (
            block_no is not None
            and self.eligible_blocks is not None
            and block_no not in self.eligible_blocks
        ):
            return None
        op = self.ops[channel]
        self.ops[channel] = op + 1
        for event in self.events:
            if event.channel != channel or event.spent:
                continue
            if event.fired > 0:
                # Sticky: already triggered, keep failing the same block.
                # Non-sticky: keep failing every eligible operation.
                if not event.sticky or event.bound_block == block_no:
                    event.fired += 1
                    self.stats.count(event.kind)
                    return event
                continue
            if event.at_op == op:
                event.fired += 1
                event.bound_block = block_no
                self.stats.count(event.kind)
                return event
        return None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def unfired(self) -> int:
        """Event firings still pending (0 once every event is spent)."""
        return sum(event.times - event.fired for event in self.events)

    @property
    def exhausted(self) -> bool:
        return self.unfired == 0

    def clear(self) -> int:
        """Drop every pending firing; returns how many were dropped.

        After ``clear()`` the plan never fires again (operation counters
        keep advancing), which is how a harness guarantees the
        "after faults clear" phase really is fault-free.
        """
        dropped = self.unfired
        self.events = [event for event in self.events if event.spent]
        return dropped

    @classmethod
    def dead_disk(
        cls, eligible_blocks: Optional[Set[int]] = None, label: str = ""
    ) -> "FaultPlan":
        """A plan under which every eligible read fails, forever.

        Models a dead disk (or a dead shard of a partitioned index):
        from the first read on, every transfer raises
        :class:`~repro.errors.BadBlockError`, exhausting the reader's
        retry budget each time.  Writes and allocations still succeed —
        the platter spins, the heads are gone.
        """
        return cls(
            [FaultEvent("transient-read", at_op=0, times=1 << 62, sticky=False)],
            eligible_blocks=eligible_blocks,
            label=label,
        )

    # -- seeded generation --------------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        read_ops: int = 0,
        write_ops: int = 0,
        transient_reads: int = 0,
        stuck_reads: int = 0,
        bit_flips: int = 0,
        latency_spikes: int = 0,
        torn_writes: int = 0,
        retry_attempts: int = 4,
        latency_ms: float = 40.0,
        eligible_blocks: Optional[Set[int]] = None,
    ) -> "FaultPlan":
        """Generate a deterministic mixed schedule from one seed.

        ``transient_reads`` recover within the retry budget
        (``times < retry_attempts``); ``stuck_reads`` exceed it, so the
        reader gives up and the serving layer must degrade.  Event
        positions are sampled without replacement per channel, so no two
        events contend for the same trigger operation.
        """
        rng = random.Random(seed)
        events: List[FaultEvent] = []

        read_events = transient_reads + stuck_reads + bit_flips + latency_spikes
        if read_events and read_ops > 0:
            slots = rng.sample(range(read_ops), min(read_events, read_ops))
            rng.shuffle(slots)
            for _ in range(transient_reads):
                if not slots:
                    break
                events.append(FaultEvent(
                    "transient-read", slots.pop(),
                    times=rng.randint(1, max(1, retry_attempts - 1)),
                ))
            for _ in range(stuck_reads):
                if not slots:
                    break
                events.append(FaultEvent(
                    "transient-read", slots.pop(), times=retry_attempts,
                ))
            for _ in range(bit_flips):
                if not slots:
                    break
                events.append(FaultEvent(
                    "bit-flip", slots.pop(), bit=rng.randrange(8 * 8192),
                ))
            for _ in range(latency_spikes):
                if not slots:
                    break
                events.append(FaultEvent(
                    "read-latency", slots.pop(),
                    extra_ms=latency_ms * rng.uniform(0.5, 2.0),
                ))
        if torn_writes and write_ops > 0:
            for slot in rng.sample(range(write_ops), min(torn_writes, write_ops)):
                events.append(FaultEvent("torn-write", slot))
        events.sort(key=lambda event: (event.channel, event.at_op))
        return cls(events, eligible_blocks=eligible_blocks)
