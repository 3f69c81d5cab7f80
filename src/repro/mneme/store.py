"""The Mneme store: files of objects, routed through pools.

"The basic services provided by Mneme are storage and retrieval of
objects, where an object is a chunk of contiguous bytes that has been
assigned a unique identifier.  Mneme has no notion of type or class for
objects."  Objects are grouped into files; identifiers are unique within
a file and mapped to globally unique identifiers when several files are
open at once.

A :class:`MnemeFile` owns one main data file of physical segments plus a
set of auxiliary-table files, and routes object operations to the pool
that owns the object's logical segment.  A :class:`MnemeStore` manages
the open files and the global identifier space.
"""

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..counters import Counters
from ..errors import (
    BadBlockError,
    ChecksumError,
    FileNotFoundInStoreError,
    MnemeError,
    ObjectNotFoundError,
    ReadFailedError,
)
from ..faults import RetryPolicy
from ..simdisk import SimFile, SimFileSystem
from .ids import logical_segment, make_global, split_global
from .pool import Pool
from .tables import PagedTable

_META = struct.Struct("<4sIIH")        # magic, file number, next logseg, pools
_META_POOL = struct.Struct("<HQQ")     # pool id, objects created, live objects
_META_MAGIC = b"MMET"


@dataclass
class ResilienceStats(Counters):
    """What the fault-tolerant read path did for one Mneme file.

    A :class:`~repro.counters.Counters` ledger like
    :class:`~repro.simdisk.disk.DiskStats`, so harnesses snapshot and
    diff it per measured run.
    """

    read_faults: int = 0          #: segment reads that raised BadBlockError
    checksum_failures: int = 0    #: segment reads that failed CRC verification
    retries: int = 0              #: re-reads attempted after a failure
    retry_wait_ms: float = 0.0    #: simulated backoff charged to the clock
    read_repairs: int = 0         #: segments rewritten from the redo log
    unrecovered_reads: int = 0    #: reads given up on (error surfaced)


class MnemeFile:
    """One Mneme file: a segment heap, auxiliary tables, and pools.

    Construction does not touch disk layout decisions: callers create the
    pools they need via :meth:`create_pool` (the pool configuration is
    part of the application, not self-describing store metadata) and then
    call :meth:`load` to restore any previously persisted state.
    """

    def __init__(
        self,
        fs: SimFileSystem,
        name: str,
        file_no: int,
        wal=None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.fs = fs
        self.name = name
        self.file_no = file_no
        #: Optional :class:`~repro.mneme.recovery.RedoLog`; when present,
        #: every segment write is logged before it reaches the main file,
        #: and a segment that fails checksum verification is repaired
        #: from the log's last known-good copy (read repair).
        self.wal = wal
        #: Bounded-backoff policy for failed segment reads.  Always
        #: present; it only acts on exception paths, so fault-free runs
        #: are unchanged.
        self.retry = retry if retry is not None else RetryPolicy()
        self.resilience = ResilienceStats()
        #: Per-segment (length, CRC-32) recorded at write time; verified
        #: on every :meth:`read_segment` so silent at-rest corruption is
        #: caught before decoded garbage reaches a pool.
        self._crcs: Dict[int, Tuple[int, int]] = {}
        main_name = f"{name}.mn"
        self.main = fs.open(main_name) if fs.exists(main_name) else fs.create(main_name)
        if self.main.size == 0:
            # A 16-byte header keeps offset 0 free: pools use offset 0 as
            # the "segment not yet written" sentinel in their tables.
            self.main.write(0, b"MNEMEFILE\x00v1\x00\x00\x00\x00")
        self.pools: Dict[int, Pool] = {}
        self._aux_files: List[SimFile] = []
        self._next_logseg = 0
        self._router: Dict[int, Pool] = {}
        self._loaded = False

    # -- services used by pools ----------------------------------------------

    def make_table(self, suffix: str, entry_format: str) -> PagedTable:
        """Create or open the auxiliary table ``<file>.aux.<suffix>``."""
        table_name = f"{self.name}.aux.{suffix}"
        file = (
            self.fs.open(table_name)
            if self.fs.exists(table_name)
            else self.fs.create(table_name)
        )
        self._aux_files.append(file)
        return PagedTable(file, entry_format)

    def allocate_logseg(self, pool_id: int) -> int:
        """Hand the next logical segment number to ``pool_id``."""
        logseg = self._next_logseg
        self._next_logseg += 1
        pool = self.pools.get(pool_id)
        if pool is not None:
            self._router[logseg] = pool
        return logseg

    def append_segment(self, data: bytes, align: int = 1) -> int:
        """Append a physical segment, aligned, returning its offset.

        Pools pass their segment size (or the transfer block size) as
        ``align`` so that one segment read never straddles an extra
        8 KB transfer block — the "careful file allocation sympathetic
        to the device transfer block size" the paper credits for much of
        Mneme's improvement.
        """
        offset = self.main.size
        if align > 1 and offset % align:
            pad = align - offset % align
            self.main.write(offset, b"\x00" * pad)
            offset += pad
        if self.wal is not None:
            self.wal.log_write(offset, data)
        self.main.write(offset, data)
        self._crcs[offset] = (len(data), zlib.crc32(data))
        return offset

    def write_segment(self, offset: int, data: bytes) -> None:
        """Rewrite a physical segment in place (through the WAL if any)."""
        if self.wal is not None:
            self.wal.log_write(offset, data)
        self.main.write(offset, data)
        self._crcs[offset] = (len(data), zlib.crc32(data))

    def read_segment(self, offset: int, length: int) -> bytes:
        """Transfer a physical segment from the main file, verified.

        One file access on the fault-free path, exactly as before.  On a
        failed transfer the read is retried under :attr:`retry` with the
        backoff charged to the simulated clock; on a checksum mismatch
        the cached copies are invalidated and, if a WAL is attached, the
        segment is rewritten from the log's last known-good copy (read
        repair) before one final verify.

        Raises
        ------
        ReadFailedError
            The transfer kept failing after the retry budget.
        ChecksumError
            The bytes stayed corrupt after retries (and repair, if a
            WAL was available).
        """
        policy = self.retry
        expected = self._crcs.get(offset)
        verify = expected is not None and expected[0] == length
        attempt = 0
        repaired = False
        while True:
            attempt += 1
            try:
                data = self.main.read(offset, length)
            except BadBlockError as exc:
                self.resilience.read_faults += 1
                if attempt >= policy.max_attempts:
                    self.resilience.unrecovered_reads += 1
                    raise ReadFailedError(
                        f"segment at offset {offset} unreadable after"
                        f" {attempt} attempts: {exc}"
                    ) from exc
                self._backoff(attempt)
                continue
            if verify and zlib.crc32(data) != expected[1]:
                self.resilience.checksum_failures += 1
                self.main.invalidate_cached(offset, length)
                if self.wal is not None and not repaired:
                    copy = self.wal.latest_for(offset)
                    if copy is not None and len(copy) == length:
                        self.write_segment(offset, copy)
                        self.resilience.read_repairs += 1
                        repaired = True
                        continue
                if attempt >= policy.max_attempts:
                    self.resilience.unrecovered_reads += 1
                    raise ChecksumError(
                        f"segment at offset {offset} failed checksum"
                        f" verification after {attempt} attempts"
                        + (" (read repair attempted)" if repaired else "")
                    )
                self._backoff(attempt)
                continue
            return data

    def _backoff(self, attempt: int) -> None:
        """Charge one bounded-backoff wait to the simulated clock."""
        wait = self.retry.wait_before(attempt)
        self.fs.disk.clock.charge_io(wait)
        self.resilience.retries += 1
        self.resilience.retry_wait_ms += wait

    # -- pool management -------------------------------------------------------

    def create_pool(self, pool_id: int, factory: Callable[..., Pool], **kwargs) -> Pool:
        """Instantiate and register a pool.

        ``factory`` is the pool class; it receives this file as its
        services object plus ``pool_id`` and any extra keyword arguments.
        """
        if pool_id in self.pools:
            raise MnemeError(f"pool id {pool_id} already registered")
        pool = factory(self, pool_id, **kwargs)
        self.pools[pool_id] = pool
        for logseg in pool.logsegs():
            self._router[logseg] = pool
        return pool

    def pool(self, pool_id: int) -> Pool:
        try:
            return self.pools[pool_id]
        except KeyError:
            raise MnemeError(f"no pool with id {pool_id}") from None

    def load(self) -> None:
        """Restore persisted meta state (after all pools are registered)."""
        meta_name = f"{self.name}.meta"
        self._loaded = True
        if not self.fs.exists(meta_name):
            return
        file = self.fs.open(meta_name)
        if file.size == 0:
            return
        raw = file.read(0, file.size)
        magic, file_no, next_logseg, pool_count = _META.unpack_from(raw, 0)
        if magic != _META_MAGIC:
            raise MnemeError(f"{meta_name!r} is not Mneme file metadata")
        self.file_no = file_no
        self._next_logseg = next_logseg
        pos = _META.size
        for _ in range(pool_count):
            pool_id, created, live = _META_POOL.unpack_from(raw, pos)
            pos += _META_POOL.size
            pool = self.pools.get(pool_id)
            if pool is None:
                raise MnemeError(
                    f"metadata names pool {pool_id} but it was not registered"
                )
            pool.set_state(created, live)

    def flush(self) -> None:
        """Flush every pool, its tables, and the file metadata."""
        for pool in self.pools.values():
            pool.flush()
        parts = [
            _META.pack(_META_MAGIC, self.file_no, self._next_logseg, len(self.pools))
        ]
        for pool_id in sorted(self.pools):
            created, live = self.pools[pool_id].get_state()
            parts.append(_META_POOL.pack(pool_id, created, live))
        meta_name = f"{self.name}.meta"
        meta = (
            self.fs.open(meta_name)
            if self.fs.exists(meta_name)
            else self.fs.create(meta_name)
        )
        meta.write(0, b"".join(parts))

    # -- object operations -------------------------------------------------------

    def _pool_of(self, oid: int) -> Pool:
        logseg = logical_segment(oid)
        pool = self._router.get(logseg)
        if pool is None:
            raise ObjectNotFoundError(oid)
        return pool

    def fetch(self, oid: int) -> bytes:
        """Retrieve an object's bytes."""
        return self._pool_of(oid).fetch(oid)

    def modify(self, oid: int, data: bytes) -> None:
        """Replace an object's bytes, subject to its pool's policies."""
        self._pool_of(oid).modify(oid, data)

    def delete(self, oid: int) -> None:
        """Remove an object (its identifier is never reused)."""
        self._pool_of(oid).delete(oid)

    def reserve(self, oid: int) -> bool:
        """Pin the object's segment in its pool's buffer if resident."""
        pool = self._router.get(logical_segment(oid))
        if pool is None:
            return False
        return pool.reserve(oid)

    def release_reservations(self) -> None:
        """Release the pins taken by :meth:`reserve` in every pool buffer."""
        seen = set()
        for pool in self.pools.values():
            if id(pool.buffer) not in seen:
                pool.buffer.release_reservations()
                seen.add(id(pool.buffer))

    def drop_user_caches(self) -> None:
        """Forget every user-space cache: buffers and auxiliary tables.

        Together with the file system's chill this simulates a fresh
        INQUERY process starting on a cold machine, which is how each of
        the paper's timed runs began.
        """
        seen = set()
        for pool in self.pools.values():
            if id(pool.buffer) not in seen:
                pool.buffer.clear()
                seen.add(id(pool.buffer))
            pool.drop_caches()

    # -- statistics ------------------------------------------------------------------

    @property
    def files(self) -> List[SimFile]:
        """Every simulated file belonging to this Mneme file."""
        out = [self.main]
        out.extend(self._aux_files)
        meta_name = f"{self.name}.meta"
        if self.fs.exists(meta_name):
            out.append(self.fs.open(meta_name))
        return out

    @property
    def total_size(self) -> int:
        """Bytes across the main, auxiliary, and meta files (Table 1)."""
        return sum(f.size for f in self.files)

    @property
    def aux_size(self) -> int:
        """Bytes of auxiliary tables (the footnote's 512 KB for TIPSTER)."""
        return sum(f.size for f in self._aux_files)


class MnemeStore:
    """Open files and the global identifier space.

    "Multiple files may be open simultaneously ... so object identifiers
    are mapped to globally unique identifiers when the objects are
    accessed."
    """

    def __init__(self, fs: SimFileSystem):
        self.fs = fs
        self._files: Dict[str, MnemeFile] = {}
        self._by_no: Dict[int, MnemeFile] = {}
        self._next_file_no = 0

    def open_file(
        self, name: str, wal=None, retry: Optional[RetryPolicy] = None
    ) -> MnemeFile:
        """Open (or create) a Mneme file and assign it a file number.

        Callers register pools on the returned file and then call its
        :meth:`MnemeFile.load` to restore persisted state.
        """
        if name in self._files:
            return self._files[name]
        file = MnemeFile(self.fs, name, self._next_file_no, wal=wal, retry=retry)
        self._next_file_no += 1
        self._files[name] = file
        self._by_no[file.file_no] = file
        return file

    def file(self, name: str) -> MnemeFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundInStoreError(name) from None

    def global_id(self, file: MnemeFile, oid: int) -> int:
        """Map a file-local identifier to its global identifier."""
        return make_global(file.file_no, oid)

    def global_ids(self, file: MnemeFile, oids: Iterable[int]) -> List[int]:
        """:meth:`global_id` of identifiers a pool of ``file`` issued."""
        base = make_global(file.file_no, 1) - 1
        return [base | oid for oid in oids]

    def fetch(self, gid: int) -> bytes:
        """Retrieve an object by global identifier."""
        file_no, oid = split_global(gid)
        file = self._by_no.get(file_no)
        if file is None:
            raise ObjectNotFoundError(gid)
        return file.fetch(oid)

    def reserve(self, gid: int) -> bool:
        """Pin an object's segment by global identifier, if resident."""
        file_no, oid = split_global(gid)
        file = self._by_no.get(file_no)
        return file.reserve(oid) if file is not None else False

    def release_reservations(self) -> None:
        for file in self._files.values():
            file.release_reservations()

    def flush(self) -> None:
        for file in self._files.values():
            file.flush()
