"""Write-ahead redo logging and restart recovery.

The paper: "The current version of Mneme is a prototype and does not
provide all of the services one might expect from a mature data
management system, such as concurrency control and transaction support.
... For future work we plan to implement some of the standard data
management services not currently provided by Mneme and verify [that
they would not introduce excessive overhead]."  This module implements
the recovery half of that future work so the claim can be measured
(see the update-extension benchmark).

Every segment write is first appended to a redo log with a CRC; a torn
or corrupted tail record (a crash mid-write) is detected and ignored at
recovery, and every complete record is idempotently replayed onto the
main file.

The log holds one copy of each segment it covers plus the open epoch.
It is two generations, each its own file: the *base*
(``<name>.base``), which ends in an epoch-commit marker, and the *open*
generation (``<name>``) that the current batch appends to.
:meth:`RedoLog.seal` publishes an epoch: it copies, in one append, the
base's records of the covered segments the batch did not rewrite (each
checked against its CRC), appends the marker, drops the base, and the
open generation becomes the base; a batch that logged no segment
appends only the marker.  An in-memory map from target offset to its
latest record, rebuilt by one parse when the log is opened, names that
re-log set and lets read repair (:meth:`RedoLog.latest_for`) read one
record.  A cut anywhere in the open generation still recovers the last
sealed epoch, because the base alone restores every covered segment to
it.
:meth:`RedoLog.checkpoint` drops both generations once the main file is
known durable.
"""

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import BadBlockError, RecoveryError
from ..simdisk import SimFile

_REC = struct.Struct("<4sQII")  # magic, target offset, length, payload CRC
_REC_MAGIC = b"MWAL"

#: Sentinel target offset marking an epoch-commit record.  No physical
#: write can target it (SimFile offsets are far smaller), so ordinary
#: replay recognises and skips markers unambiguously.
EPOCH_MARKER_OFFSET = (1 << 64) - 1
_EPOCH_PAYLOAD = struct.Struct("<Q")


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    replayed: int = 0
    torn_tail: bool = False
    bytes_replayed: int = 0
    #: Highest epoch-commit marker honoured by the replay (0 = none).
    epoch: int = 0
    #: Complete records discarded because they follow the last marker
    #: (only :func:`recover_to_epoch` discards; plain replay leaves 0).
    discarded: int = 0


class RedoLog:
    """A redo log of physical segment writes, bounded to two generations.

    ``file`` is the open generation; the base, if any, is the file of
    the same name plus ``.base`` on the same file system.
    """

    def __init__(self, file: SimFile):
        self._fs = file.fs
        self._base_name = f"{file.name}.base"
        self._file = file
        self._base: Optional[SimFile] = (
            self._fs.open(self._base_name)
            if self._fs.exists(self._base_name) else None
        )
        #: Target offset -> (generation, record position, payload length)
        #: of its latest complete record.
        self._latest: Dict[int, Tuple[SimFile, int, int]] = {}
        #: The epoch of the last marker written or found.
        self.epoch = 0
        #: Segment records in the open generation.
        self._open_records = 0
        for generation, pos, offset, data in self._parse()[0]:
            if offset == EPOCH_MARKER_OFFSET:
                (self.epoch,) = _EPOCH_PAYLOAD.unpack(data)
            else:
                self._latest[offset] = (generation, pos, len(data))
                self._open_records += generation is file

    @property
    def generations(self) -> List[SimFile]:
        """The log's files, oldest first: the base if any, then the open one."""
        return [f for f in (self._base, self._file) if f is not None]

    @property
    def size(self) -> int:
        return sum(f.size for f in self.generations)

    def log_write(self, target_offset: int, data: bytes) -> None:
        """Record that ``data`` is about to be written at ``target_offset``."""
        self.log_writes([(target_offset, data)])

    def log_writes(self, writes: Iterable[Tuple[int, bytes]]) -> None:
        """Record several ``(target offset, data)`` writes in one append."""
        file = self._file
        pos = file.size
        parts, entries = [], []
        for target_offset, data in writes:
            parts.append(
                _REC.pack(_REC_MAGIC, target_offset, len(data), zlib.crc32(data))
            )
            parts.append(data)
            if target_offset != EPOCH_MARKER_OFFSET:
                entries.append((target_offset, (file, pos, len(data))))
            pos += _REC.size + len(data)
        file.append(b"".join(parts))
        self._latest.update(entries)
        self._open_records += len(entries)

    def log_epoch(self, epoch: int) -> None:
        """Append an epoch-commit marker: every record before it belongs
        to a fully published epoch.  Markers ride the ordinary record
        framing (CRC included) so torn-tail detection covers them too.
        """
        self.log_write(EPOCH_MARKER_OFFSET, _EPOCH_PAYLOAD.pack(epoch))
        self.epoch = epoch

    def seal(
        self,
        epoch: int,
        fallback: "Optional[Callable[[int, int], Optional[bytes]]]" = None,
    ) -> None:
        """Publish ``epoch`` and drop the base.

        The covered segments whose latest copy is still in the base are
        copied from their base records (one read per run of records
        that lie back to back), each checked against its own CRC, and
        re-logged in one append in offset order, so the open
        generation alone holds the latest copy of every covered segment.
        The marker follows; then the base goes and the open generation
        becomes the base.  A base record that cannot be read or fails
        its check is taken from ``fallback(offset, length)`` instead
        (the main file's bytes, verified against its own checksums) and,
        with no good copy there either, is no longer covered.  When the
        batch logged no segment, the base is already current: only the
        marker is appended and nothing is copied.
        """
        if self._base is not None and not self._open_records:
            self.log_epoch(epoch)
            return
        stale = sorted(
            (pos, offset, length)
            for offset, (generation, pos, length) in self._latest.items()
            if generation is not self._file
        )
        copies = []
        for run in _adjacent_runs(stale):
            start = run[0][0]
            end = run[-1][0] + _REC.size + run[-1][2]
            try:
                image = self._base.read(start, end - start)
            except BadBlockError:
                image = None  # read the run's records one at a time
            for pos, offset, length in run:
                data = (
                    self._read_record(self._base, pos, offset, length)
                    if image is None
                    else _checked(image, pos - start, offset, length)
                )
                if data is None and fallback is not None:
                    data = fallback(offset, length)
                if data is None:
                    del self._latest[offset]  # no good copy left to keep
                else:
                    copies.append((offset, data))
        self.log_writes(sorted(copies))
        self.log_epoch(epoch)
        name = self._file.name
        self._fs.rename(name, self._base_name)  # frees the old base
        self._base = self._file
        self._file = self._fs.create(name)
        self._open_records = 0
        # The log's file name keeps counting the log's whole traffic.
        self._file.stats = self._base.stats.copy()

    def checkpoint(self) -> None:
        """Discard both generations: the main file is durable up to here."""
        if self._base is not None:
            self._fs.remove(self._base_name)
            self._base = None
        self._file.truncate(0)
        self._latest.clear()
        self._open_records = 0

    def latest_for(self, target_offset: int) -> "Optional[bytes]":
        """The most recent complete logged payload for one main-file offset.

        This is the read-repair source: when a segment read fails
        verification, the last copy the WAL logged for that offset is
        known good (each record carries its own CRC).  One lookup in
        the offset map, then one read of that record.  Returns ``None``
        if the log holds no complete record for the offset — e.g. after
        a checkpoint, or when the record fails its own check.
        """
        entry = self._latest.get(target_offset)
        if entry is None:
            return None
        generation, pos, length = entry
        return self._read_record(generation, pos, target_offset, length)

    @staticmethod
    def _read_record(
        generation: SimFile, pos: int, target_offset: int, length: int
    ) -> "Optional[bytes]":
        """The payload of the record at ``pos``, read in one call, or
        ``None`` if the read fails or the record fails its check."""
        try:
            image = generation.read(pos, _REC.size + length)
        except BadBlockError:
            return None
        return _checked(image, 0, target_offset, length)

    def records(self) -> "Tuple[List[Tuple[int, bytes]], bool]":
        """Parse the log.

        Returns
        -------
        (records, torn):
            The complete (offset, data) records in order, base first,
            and whether a torn/corrupt record was detected (anything
            after a torn record is untrusted and discarded).
        """
        parsed, torn = self._parse()
        return [(offset, data) for _gen, _pos, offset, data in parsed], torn

    def _parse(self) -> "Tuple[List[Tuple[SimFile, int, int, bytes]], bool]":
        """Every complete record as (generation, position, offset, data),
        each generation read in one call, and whether a torn record
        ended the parse."""
        out: List[Tuple[SimFile, int, int, bytes]] = []
        for generation in self.generations:
            size = generation.size
            image = generation.read(0, size)
            pos = 0
            while pos + _REC.size <= size:
                magic, offset, length, crc = _REC.unpack_from(image, pos)
                end = pos + _REC.size + length
                if magic != _REC_MAGIC or end > size:
                    return out, True  # torn: header garbled or payload missing
                data = image[pos + _REC.size:end]
                if zlib.crc32(data) != crc:
                    return out, True  # torn: payload corrupt
                out.append((generation, pos, offset, data))
                pos = end
            if pos != size:
                return out, True
        return out, False


def _checked(
    image: bytes, at: int, target_offset: int, length: int
) -> "Optional[bytes]":
    """The payload of the record at ``image[at:]`` if its header names
    ``target_offset`` and ``length`` and its CRC matches, else ``None``."""
    magic, offset, logged, crc = _REC.unpack_from(image, at)
    data = image[at + _REC.size:at + _REC.size + length]
    if (magic != _REC_MAGIC or offset != target_offset or logged != length
            or zlib.crc32(data) != crc):
        return None
    return data


def _adjacent_runs(
    records: "List[Tuple[int, int, int]]",
) -> "List[List[Tuple[int, int, int]]]":
    """Group ``(position, offset, length)`` records, sorted by position,
    into runs that lie back to back in their file."""
    runs: List[List[Tuple[int, int, int]]] = []
    for record in records:
        last = runs[-1][-1] if runs else None
        if last is not None and last[0] + _REC.size + last[2] == record[0]:
            runs[-1].append(record)
        else:
            runs.append([record])
    return runs


def recover(log: RedoLog, main: SimFile) -> RecoveryReport:
    """Replay the redo log onto ``main`` (idempotent) and checkpoint.

    Raises
    ------
    RecoveryError
        If a record targets an offset beyond what replay can produce
        (the log does not belong to this file).
    """
    records, torn = log.records()
    report = RecoveryReport(torn_tail=torn)
    for offset, data in records:
        if offset == EPOCH_MARKER_OFFSET:
            (report.epoch,) = _EPOCH_PAYLOAD.unpack(data)
            continue
        if offset > main.size:
            raise RecoveryError(
                f"redo record targets offset {offset} past EOF {main.size}; "
                "log does not match this file"
            )
        main.write(offset, data)
        report.replayed += 1
        report.bytes_replayed += len(data)
    log.checkpoint()
    return report


def recover_to_epoch(log: RedoLog, main: SimFile) -> RecoveryReport:
    """Replay only records covered by a complete epoch-commit marker.

    The continuous-ingest crash contract: a batch's segment writes hit
    the log first, the epoch marker lands after the whole batch, so a
    crash at *any* byte of the log replays to the last fully published
    epoch — never a half-published one.  Complete records after the
    final marker (a batch that was cut mid-publish) are discarded, as
    is everything after a torn record.  With no marker in the log,
    nothing replays and the main file stays at the previous epoch.
    """
    records, torn = log.records()
    report = RecoveryReport(torn_tail=torn)
    committed = 0
    for i, (offset, data) in enumerate(records):
        if offset == EPOCH_MARKER_OFFSET:
            committed = i + 1
            (report.epoch,) = _EPOCH_PAYLOAD.unpack(data)
    report.discarded = len(records) - committed
    for offset, data in records[:committed]:
        if offset == EPOCH_MARKER_OFFSET:
            continue
        if offset > main.size:
            raise RecoveryError(
                f"redo record targets offset {offset} past EOF {main.size}; "
                "log does not match this file"
            )
        main.write(offset, data)
        report.replayed += 1
        report.bytes_replayed += len(data)
    log.checkpoint()
    return report
