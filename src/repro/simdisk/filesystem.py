"""Simulated operating-system file layer.

Byte-addressed files are implemented over a :class:`~repro.simdisk.disk.SimDisk`
through a shared LRU :class:`~repro.simdisk.cache.BlockCache` that plays the
role of the ULTRIX file-system buffer cache in the paper's platform.

Every :meth:`SimFile.read` models one file-access system call: it charges
the kernel-crossing cost, pulls each covered 8 KB block through the FS cache
(misses go to the disk, which is where the paper's ``I`` counter ticks), and
charges a copy cost for the bytes delivered to user space.  Per-file
counters record the number of accesses and bytes delivered, which is exactly
what Table 5's ``A`` and ``B`` columns report for the inverted file.

:meth:`SimFileSystem.chill` reproduces the paper's methodology of reading a
32 MB "chill file" between runs to purge the OS cache.
"""

from dataclasses import dataclass
from typing import Dict, List

from ..counters import Counters
from ..errors import FileNotFoundInStoreError, FileSystemError
from .cache import BlockCache
from .disk import SimDisk
from .timing import BLOCK_SIZE


@dataclass
class FileStats(Counters):
    """Access accounting for one simulated file."""

    read_calls: int = 0
    write_calls: int = 0
    bytes_delivered: int = 0
    bytes_written: int = 0


class SimFile:
    """One byte-addressed file on the simulated file system.

    Files grow on demand; blocks are allocated from the shared disk, so
    files written in alternation interleave physically.
    """

    def __init__(self, fs: "SimFileSystem", name: str):
        self._fs = fs
        self.name = name
        self._blocks: List[int] = []  # file block index -> disk block number
        self._size = 0
        self.stats = FileStats()
        self._prev_last_block = -2  # read-ahead sequential-pattern detector

    @property
    def size(self) -> int:
        """Current length of the file in bytes."""
        return self._size

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    def read(self, offset: int, length: int) -> bytes:
        """One file-access system call delivering ``length`` bytes.

        Reading past end of file is an error: the storage layers above
        always know their record extents, so a short read indicates a bug.
        """
        if offset < 0 or length < 0:
            raise FileSystemError("negative offset or length")
        if length == 0:
            return b""
        if offset + length > self._size:
            raise FileSystemError(
                f"read [{offset}, {offset + length}) past EOF ({self._size})"
                f" of {self.name!r}"
            )
        clock = self._fs.disk.clock
        clock.charge_system(clock.cost.syscall_ms)
        self.stats.read_calls += 1

        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        chunks = []
        for file_block in range(first, last + 1):
            data = self._block_through_cache(file_block)
            lo = offset - file_block * BLOCK_SIZE if file_block == first else 0
            hi = (
                offset + length - file_block * BLOCK_SIZE
                if file_block == last
                else BLOCK_SIZE
            )
            chunks.append(data[lo:hi])
        payload = b"".join(chunks)
        clock.charge_system(clock.cost.copy_ms_per_kb * (len(payload) / 1024.0))
        self.stats.bytes_delivered += len(payload)
        if self._fs.readahead_blocks and first == self._prev_last_block + 1:
            # Sequential pattern across read() calls: prefetch ahead, as
            # the ULTRIX buffer cache did.
            self._prefetch(last + 1, self._fs.readahead_blocks)
        self._prev_last_block = last
        return payload

    def _prefetch(self, start_block: int, count: int) -> None:
        """Pull upcoming file blocks into the FS cache."""
        end = min(start_block + count, len(self._blocks))
        for file_block in range(start_block, end):
            key = (self.name, file_block)
            if self._fs.cache.peek(key) is None:
                self._fs.cache.put(key, self._fs.disk.read_block(self._blocks[file_block]))

    def write(self, offset: int, data: bytes) -> None:
        """One file-write system call; extends the file as needed."""
        if offset < 0:
            raise FileSystemError("negative offset")
        if not data:
            return
        clock = self._fs.disk.clock
        clock.charge_system(clock.cost.syscall_ms)
        clock.charge_system(clock.cost.copy_ms_per_kb * (len(data) / 1024.0))
        self.stats.write_calls += 1
        self.stats.bytes_written += len(data)

        end = offset + data_len if (data_len := len(data)) else offset
        self._ensure_blocks((end + BLOCK_SIZE - 1) // BLOCK_SIZE)
        if end > self._size:
            self._size = end

        first = offset // BLOCK_SIZE
        last = (end - 1) // BLOCK_SIZE
        pos = 0
        for file_block in range(first, last + 1):
            block_start = file_block * BLOCK_SIZE
            lo = max(offset - block_start, 0)
            hi = min(end - block_start, BLOCK_SIZE)
            piece = data[pos:pos + (hi - lo)]
            pos += hi - lo
            if lo == 0 and hi == BLOCK_SIZE:
                block = piece
            else:
                current = bytearray(self._block_through_cache(file_block))
                current[lo:hi] = piece
                block = bytes(current)
            self._write_block(file_block, block)

    def append(self, data: bytes) -> int:
        """Write ``data`` at EOF, returning the offset it was written at."""
        offset = self._size
        self.write(offset, data)
        return offset

    def invalidate_cached(self, offset: int, length: int) -> None:
        """Drop the FS-cached copies of the blocks covering a byte range.

        The read-repair path uses this when delivered bytes fail
        verification: a corrupted block may have been cached on the way
        up, and retrying through the cache would just re-serve the
        poison.  No simulated time is charged — invalidation is a
        user-space bookkeeping operation.
        """
        if length <= 0:
            return
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        for file_block in range(first, min(last + 1, len(self._blocks))):
            self._fs.cache.invalidate((self.name, file_block))

    def truncate(self, size: int = 0) -> None:
        """Shrink the file; freed blocks are not reused (append-era FS)."""
        if size < 0:
            raise FileSystemError("negative size")
        if size > self._size:
            raise FileSystemError("truncate cannot grow a file")
        for file_block in range((size + BLOCK_SIZE - 1) // BLOCK_SIZE, len(self._blocks)):
            self._fs.cache.invalidate((self.name, file_block))
        self._size = size
        del self._blocks[(size + BLOCK_SIZE - 1) // BLOCK_SIZE:]

    def _block_through_cache(self, file_block: int) -> bytes:
        """Fetch a file block via the FS cache; a miss reads the disk."""
        if file_block >= len(self._blocks):
            return bytes(BLOCK_SIZE)
        key = (self.name, file_block)
        cached = self._fs.cache.get(key)
        if cached is not None:
            return cached
        data = self._fs.disk.read_block(self._blocks[file_block])
        self._fs.cache.put(key, data)
        return data

    def _write_block(self, file_block: int, data: bytes) -> None:
        """Write-through: update both the disk and the FS cache."""
        self._fs.disk.write_block(self._blocks[file_block], data)
        self._fs.cache.put((self.name, file_block), data)

    def _ensure_blocks(self, count: int) -> None:
        while len(self._blocks) < count:
            self._blocks.append(self._fs.disk.allocate())


class SimFileSystem:
    """A namespace of :class:`SimFile` objects over one disk and FS cache.

    Parameters
    ----------
    disk:
        The backing block device.
    cache_blocks:
        Capacity of the file-system buffer cache, in 8 KB blocks.  The
        paper's machine had 64 MB of memory; the scaled default in
        :mod:`repro.core.config` models a proportionally scaled cache.
    """

    def __init__(self, disk: SimDisk, cache_blocks: int = 1024, readahead_blocks: int = 0):
        self.disk = disk
        self.cache = BlockCache(cache_blocks)
        #: Blocks prefetched after a sequential access pattern is seen
        #: (0 disables read-ahead; the paper-calibrated configurations
        #: leave it off so measured ``I`` counts stay interpretable).
        self.readahead_blocks = readahead_blocks
        self._files: Dict[str, SimFile] = {}

    def create(self, name: str) -> SimFile:
        """Create a new empty file; replaces any existing file of the name."""
        handle = SimFile(self, name)
        self._files[name] = handle
        return handle

    def open(self, name: str) -> SimFile:
        """Return the named file.

        Raises
        ------
        FileNotFoundInStoreError
            If the file was never created.
        """
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundInStoreError(name) from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def remove(self, name: str) -> None:
        """Delete a file's namespace entry and purge its cached blocks.

        Disk blocks are not reclaimed (the simulated device never
        shrinks), matching how the harness accounts for space: file
        sizes, not raw device usage.
        """
        file = self._files.pop(name, None)
        if file is None:
            raise FileNotFoundInStoreError(name)
        for file_block in range(file.block_count):
            self.cache.invalidate((name, file_block))

    def rename(self, old: str, new: str) -> None:
        """Rename a file (replacing any existing file called ``new``)."""
        file = self._files.pop(old, None)
        if file is None:
            raise FileNotFoundInStoreError(old)
        for file_block in range(file.block_count):
            self.cache.invalidate((old, file_block))
        if new in self._files:
            self.remove(new)
        file.name = new
        self._files[new] = file

    def names(self):
        return sorted(self._files)

    def chill(self) -> None:
        """Purge the FS buffer cache, as the paper's 32 MB chill file does.

        Charges the sequential read of a chill file so the purge is not
        free in simulated time (harnesses normally exclude it by
        snapshotting the clock afterwards, as the paper timed only query
        processing).
        """
        clock = self.disk.clock
        chill_blocks = max(self.cache.capacity, 1)
        clock.charge_io(
            clock.cost.block_read_random_ms
            + clock.cost.block_read_sequential_ms * (chill_blocks - 1)
        )
        self.cache.clear()
