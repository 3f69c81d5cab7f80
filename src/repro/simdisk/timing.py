"""Simulated clock and I/O cost model.

The paper measured wall-clock time, user CPU time, and "system CPU plus time
spent waiting for I/O" on a DECstation 5000/240 with SCSI disks.  We do not
have that hardware, so the substrate instead *counts* every interesting event
(disk block transfers, file-access system calls, kernel-to-user copies,
postings processed by the retrieval engine) and converts the counts into
deterministic simulated milliseconds through a fixed :class:`CostModel`.

Times are split into the same three buckets the paper reports:

``user``
    CPU spent in the retrieval and ranking engine (belief computation,
    record decompression).  The paper observed this varies by <1% across
    storage backends; in our simulation it depends only on the postings
    processed, so it is identical across backends by construction.

``system``
    CPU spent crossing the system-call boundary and copying data between
    simulated kernel and user space.

``io``
    Time spent waiting for the simulated disk.

Table 3 corresponds to ``wall = user + system + io``; Table 4 corresponds to
``system + io``.
"""

from dataclasses import dataclass, field

from ..counters import Counters

#: Size of one disk transfer block, in bytes.  The paper's ULTRIX file system
#: reads 8 Kbyte blocks ("I" in Table 5 counts these).
BLOCK_SIZE = 8192


@dataclass(frozen=True)
class CostModel:
    """Deterministic cost constants, in simulated milliseconds.

    Defaults approximate early-90s SCSI disk and MIPS R3000 behaviour: a
    random 8 KB read pays an average seek plus rotational delay (~14 ms)
    plus transfer (~2 ms); a sequential read pays transfer only.
    """

    #: Random 8 KB block read (seek + rotation + transfer).
    block_read_random_ms: float = 16.0
    #: Sequential 8 KB block read (head already positioned).
    block_read_sequential_ms: float = 2.0
    #: Random 8 KB block write.
    block_write_random_ms: float = 17.0
    #: Sequential 8 KB block write.
    block_write_sequential_ms: float = 2.5
    #: Fixed kernel-crossing overhead per file-access system call.
    syscall_ms: float = 1.0
    #: Copying data between simulated kernel and user space, per Kbyte.
    copy_ms_per_kb: float = 0.15
    #: User CPU per posting entry processed by the inference engine.
    cpu_ms_per_posting: float = 0.002
    #: User CPU per Kbyte of inverted list decompressed.
    cpu_ms_per_kb_decode: float = 0.03
    #: User CPU per query-node evaluated (parse/plumbing overhead).
    cpu_ms_per_query_node: float = 0.5


@dataclass
class TimeBreakdown(Counters):
    """Accumulated simulated time, split into the paper's three buckets."""

    user_ms: float = 0.0
    system_ms: float = 0.0
    io_ms: float = 0.0

    @property
    def wall_ms(self) -> float:
        """Total simulated wall-clock time (Table 3)."""
        return self.user_ms + self.system_ms + self.io_ms

    @property
    def system_io_ms(self) -> float:
        """System CPU plus I/O wait (Table 4)."""
        return self.system_ms + self.io_ms


@dataclass
class SimClock:
    """Simulated clock shared by every component of one simulated machine.

    Components charge time to the clock as they perform work; experiment
    harnesses snapshot the clock before and after a run and report deltas.
    """

    cost: CostModel = field(default_factory=CostModel)
    time: TimeBreakdown = field(default_factory=TimeBreakdown)

    def charge_user(self, ms: float) -> None:
        """Charge engine (user) CPU time."""
        self.time.user_ms += ms

    def charge_system(self, ms: float) -> None:
        """Charge kernel-crossing / copy (system) CPU time."""
        self.time.system_ms += ms

    def charge_io(self, ms: float) -> None:
        """Charge disk wait time."""
        self.time.io_ms += ms

    def snapshot(self) -> TimeBreakdown:
        """Return a copy of the accumulated time for later differencing."""
        return self.time.copy()

    def since(self, start: TimeBreakdown) -> TimeBreakdown:
        """Return the time accumulated since ``start`` was snapshot."""
        return self.time - start

    def reset(self) -> None:
        """Zero the accumulated time (a fresh run)."""
        self.time = TimeBreakdown()
