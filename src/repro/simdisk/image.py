"""Saving and loading simulated machine images to the host file system.

The simulated machine lives in process memory; an *image* makes its
state durable on the real disk so an index built in one process can be
queried in another (examples and long experiments use this).  The format
is a plain struct-framed byte stream — no pickling, so loading an image
executes no code:

::

    MAGIC  next_block  file_count
    per file:  name_len name  size  block_count  block_numbers...
    block_count_total
    per block: block_number payload(8 KiB)

Block numbers and per-file block tables are preserved exactly, so the
physical layout — and therefore every seek-model measurement — is
identical after a round trip.  The free list is not stored: it is every
block below ``next_block`` that no file references, so loading rebuilds
it, and the next allocation is the same as before the save.
:func:`image_bytes` and :func:`restore_image` are the in-memory halves,
which re-replication uses to copy a platter onto a fresh machine.
"""

import struct
from pathlib import Path
from typing import List, Union

from ..errors import StorageError
from .disk import SimDisk
from .filesystem import SimFile, SimFileSystem
from .timing import BLOCK_SIZE, SimClock

_MAGIC = b"SIMDISK1"
_HEADER = struct.Struct("<8sQI")     # magic, next block, file count
_FILE_HDR = struct.Struct("<HQQ")    # name length, size, block count
_BLOCK_COUNT = struct.Struct("<Q")
_BLOCK_NO = struct.Struct("<Q")


def save_image(fs: SimFileSystem, path: Union[str, Path]) -> int:
    """Write the machine's disk and file table to ``path``; returns the
    image size in bytes."""
    data = image_bytes(fs)
    Path(path).write_bytes(data)
    return len(data)


def held_blocks(fs: SimFileSystem) -> List[int]:
    """Every disk block a file holds, ascending: the blocks
    :func:`image_bytes` copies.  Free blocks below the high-water mark
    are not among them."""
    return sorted(
        block_no for name in fs.names() for block_no in fs.open(name)._blocks
    )


def image_bytes(fs: SimFileSystem) -> bytes:
    """The machine's disk and file table as an image.  Reading block
    payloads uses :meth:`~repro.simdisk.disk.SimDisk.peek_block`, so it
    charges no simulated time.
    """
    disk = fs.disk
    parts = [_HEADER.pack(_MAGIC, disk.blocks_allocated, len(fs.names()))]
    referenced = []
    for name in fs.names():
        file = fs.open(name)
        raw_name = name.encode("utf-8")
        parts.append(_FILE_HDR.pack(len(raw_name), file.size, file.block_count))
        parts.append(raw_name)
        for block_no in file._blocks:
            parts.append(_BLOCK_NO.pack(block_no))
            referenced.append(block_no)
    parts.append(_BLOCK_COUNT.pack(len(referenced)))
    for block_no in referenced:
        parts.append(_BLOCK_NO.pack(block_no))
        parts.append(disk.peek_block(block_no))
    return b"".join(parts)


def load_image(
    path: Union[str, Path], clock: SimClock = None, cache_blocks: int = 64
) -> SimFileSystem:
    """Reconstruct a simulated file system from :func:`save_image` output.

    The returned machine has a fresh clock (or the one provided) and an
    empty FS cache — the state a newly booted machine would have — but
    byte-identical files at identical physical block addresses.
    """
    clock = clock if clock is not None else SimClock()
    fs = SimFileSystem(SimDisk(clock), cache_blocks=cache_blocks)
    return restore_image(Path(path).read_bytes(), fs)


def restore_image(data: bytes, fs: SimFileSystem) -> SimFileSystem:
    """Lay :func:`image_bytes` output onto ``fs`` (empty, a fresh disk)."""
    if len(data) < _HEADER.size or data[:8] != _MAGIC:
        raise StorageError("not a simulated disk image")
    _magic, next_block, file_count = _HEADER.unpack_from(data, 0)
    pos = _HEADER.size
    disk = fs.disk
    disk._next_block = next_block

    file_specs = []
    for _ in range(file_count):
        name_len, size, block_count = _FILE_HDR.unpack_from(data, pos)
        pos += _FILE_HDR.size
        name = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        blocks = []
        for _ in range(block_count):
            (block_no,) = _BLOCK_NO.unpack_from(data, pos)
            pos += _BLOCK_NO.size
            blocks.append(block_no)
        file_specs.append((name, size, blocks))

    (total_blocks,) = _BLOCK_COUNT.unpack_from(data, pos)
    pos += _BLOCK_COUNT.size
    for _ in range(total_blocks):
        (block_no,) = _BLOCK_NO.unpack_from(data, pos)
        pos += _BLOCK_NO.size
        payload = data[pos:pos + BLOCK_SIZE]
        pos += BLOCK_SIZE
        if len(payload) != BLOCK_SIZE:
            raise StorageError(f"image truncated in block {block_no}")
        disk._blocks[block_no] = payload

    for name, size, blocks in file_specs:
        file = SimFile(fs, name)
        file._size = size
        file._blocks = blocks
        fs._files[name] = file
    # The free list is every block below the mark that no file holds
    # (an ascending list is already a heap).
    held = {block_no for _, _, blocks in file_specs for block_no in blocks}
    disk._free = [block_no for block_no in range(next_block) if block_no not in held]
    return fs
