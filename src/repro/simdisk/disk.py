"""Simulated block device.

The disk stores fixed-size blocks (:data:`~repro.simdisk.timing.BLOCK_SIZE`
bytes) and charges the shared :class:`~repro.simdisk.timing.SimClock` for
every transfer.  A one-block lookahead head-position model distinguishes
sequential from random transfers, which is what makes the paper's "file
allocation sympathetic to the device transfer block size" visible in
simulated time.

Reads of blocks counted here correspond to the paper's ``I`` statistic
(Table 5): the number of 8 Kbyte blocks actually read from disk, below any
file-system caching.
"""

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..counters import Counters
from ..errors import BadBlockError, DiskFullError
from .timing import BLOCK_SIZE, SimClock


@dataclass
class DiskStats(Counters):
    """Transfer counters for one simulated disk."""

    blocks_read: int = 0
    blocks_written: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    #: Transfers that failed (bad block or injected transient fault).
    #: The head still moved and the rotation was charged, but no data
    #: was delivered, so these do not count toward ``blocks_read``.
    failed_reads: int = 0

    @property
    def bytes_read(self) -> int:
        return self.blocks_read * BLOCK_SIZE

    @property
    def bytes_written(self) -> int:
        return self.blocks_written * BLOCK_SIZE


class SimDisk:
    """A block device backed by an in-memory block map.

    :meth:`allocate` hands out the lowest-numbered block that
    :meth:`free` returned, and only grows the device when none is free.
    Files that grow alternately therefore interleave physically, and a
    file rewritten after a truncate lands in the blocks it gave back —
    the fragmentation and reuse a real allocator would produce.

    Parameters
    ----------
    clock:
        Shared simulated clock charged for every transfer.
    capacity_blocks:
        Optional block budget; :meth:`allocate` raises
        :class:`~repro.errors.DiskFullError` when the device would have
        to grow past it.  ``None`` means unbounded.
    """

    def __init__(self, clock: SimClock, capacity_blocks: Optional[int] = None):
        self._clock = clock
        self._capacity = capacity_blocks
        self._blocks: Dict[int, bytes] = {}
        self._next_block = 0
        #: Freed block numbers below ``_next_block``, a min-heap.
        self._free: List[int] = []
        self._head = -2  # last block transferred; -2 means "nowhere"
        self.stats = DiskStats()
        #: Set of block numbers deliberately corrupted by failure-injection
        #: tests; reading one raises :class:`~repro.errors.BadBlockError`.
        self.bad_blocks: set = set()
        self._fault_plan = None

    def attach_fault_plan(self, plan) -> None:
        """Attach a :class:`~repro.faults.plan.FaultPlan` (or None).

        The plan observes every transfer and allocation and decides
        which ones to fault; with no plan attached (the default) this
        class behaves exactly as before the fault subsystem existed.
        """
        self._fault_plan = plan

    @property
    def fault_plan(self):
        return self._fault_plan

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def blocks_allocated(self) -> int:
        """The device's high-water mark: blocks ever handed out.

        Free blocks below the mark still count, so this is the platter
        the device occupies, not the blocks files hold.
        """
        return self._next_block

    @property
    def free_blocks(self) -> List[int]:
        """Freed block numbers awaiting reuse, ascending."""
        return sorted(self._free)

    def allocate(self, count: int = 1) -> int:
        """Reserve ``count`` consecutive blocks, returning the first.

        One block comes from the free list when it holds any; a larger
        request, or an empty free list, grows the device.

        Raises
        ------
        DiskFullError
            If the device must grow past a configured capacity.
        """
        if count < 1:
            raise ValueError("must allocate at least one block")
        if self._fault_plan is not None:
            fault = self._fault_plan.observe_alloc()
            if fault is not None and fault.kind == "disk-full":
                raise DiskFullError(
                    f"disk full (injected): allocation of {count} blocks"
                    f" refused at block {self._next_block}"
                )
        if count == 1 and self._free:
            return heapq.heappop(self._free)
        if self._capacity is not None and self._next_block + count > self._capacity:
            raise DiskFullError(
                f"disk full: {self._next_block} of {self._capacity} blocks in use,"
                f" {count} requested"
            )
        first = self._next_block
        self._next_block += count
        return first

    def free(self, block_no: int) -> None:
        """Return a block for reuse; its payload is dropped, so it reads
        as zeroes until written again."""
        self._check_block_no(block_no)
        self._blocks.pop(block_no, None)
        self.bad_blocks.discard(block_no)
        heapq.heappush(self._free, block_no)

    def read_block(self, block_no: int) -> bytes:
        """Transfer one block from disk, charging seek or sequential cost.

        Unwritten blocks read as zeroes, as on a freshly formatted device.
        """
        self._check_block_no(block_no)
        if block_no in self.bad_blocks:
            raise BadBlockError(f"block {block_no} failed read verification")
        fault = (
            self._fault_plan.observe_read(block_no)
            if self._fault_plan is not None
            else None
        )
        sequential = block_no == self._head + 1
        cost = self._clock.cost
        if fault is not None and fault.kind == "transient-read":
            # The head moved and the rotation was wasted, but no data
            # came back: charge the transfer, count a failed read, and
            # let the layers above decide whether to retry.
            self._clock.charge_io(
                cost.block_read_sequential_ms
                if sequential
                else cost.block_read_random_ms
            )
            self.stats.failed_reads += 1
            self._head = block_no
            raise BadBlockError(
                f"block {block_no} transfer failed (injected transient fault)"
            )
        if fault is not None and fault.kind == "bit-flip":
            # Silent at-rest corruption: flip one stored bit, then serve
            # the read normally.  Only checksums above can notice.
            stored = bytearray(self._blocks.get(block_no, bytes(BLOCK_SIZE)))
            stored[(fault.bit // 8) % BLOCK_SIZE] ^= 1 << (fault.bit % 8)
            self._blocks[block_no] = bytes(stored)
        if sequential:
            self.stats.sequential_reads += 1
            self._clock.charge_io(cost.block_read_sequential_ms)
        else:
            self.stats.random_reads += 1
            self._clock.charge_io(cost.block_read_random_ms)
        if fault is not None and fault.kind == "read-latency":
            self._clock.charge_io(fault.extra_ms)
        self.stats.blocks_read += 1
        self._head = block_no
        data = self._blocks.get(block_no)
        if data is None:
            return bytes(BLOCK_SIZE)
        return data

    def write_block(self, block_no: int, data: bytes) -> None:
        """Transfer one block to disk; ``data`` must be exactly one block."""
        self._check_block_no(block_no)
        if len(data) != BLOCK_SIZE:
            raise ValueError(
                f"write_block needs exactly {BLOCK_SIZE} bytes, got {len(data)}"
            )
        fault = (
            self._fault_plan.observe_write(block_no)
            if self._fault_plan is not None
            else None
        )
        if fault is not None and fault.kind == "torn-write":
            # The write "succeeds" but only the first half reached the
            # platter — the torn page the redo log exists to repair.
            data = data[: BLOCK_SIZE // 2] + bytes(BLOCK_SIZE - BLOCK_SIZE // 2)
        sequential = block_no == self._head + 1
        cost = self._clock.cost
        if sequential:
            self._clock.charge_io(cost.block_write_sequential_ms)
        else:
            self._clock.charge_io(cost.block_write_random_ms)
        if fault is not None and fault.kind == "write-latency":
            self._clock.charge_io(fault.extra_ms)
        self.stats.blocks_written += 1
        self._head = block_no
        self._blocks[block_no] = bytes(data)
        self.bad_blocks.discard(block_no)

    def corrupt_block(self, block_no: int) -> None:
        """Failure injection: mark a block as unreadable (torn write)."""
        self._check_block_no(block_no)
        self.bad_blocks.add(block_no)

    def peek_block(self, block_no: int) -> bytes:
        """Read block contents without charging time or counters (tests)."""
        data = self._blocks.get(block_no)
        return bytes(BLOCK_SIZE) if data is None else data

    def _check_block_no(self, block_no: int) -> None:
        if block_no < 0 or block_no >= self._next_block:
            raise ValueError(
                f"block {block_no} outside allocated range [0, {self._next_block})"
            )
