"""Test oracle: whole-structure serializers of what the store saves.

:class:`~repro.inquery.HashDictionary` and
:class:`~repro.inquery.DocTable` keep their saved image and repack only
what changed since the last save; :class:`~repro.mneme.FixedSlotSegment`
keeps its slot body packed and patches it in place;
:class:`~repro.mneme.DirectorySegment` keeps the image it was read from.
These functions are what each replaced — walk the whole structure and
pack every record — and the image tests compare the saved bytes against
them, byte for byte.
"""

import struct
import zlib
from typing import Optional, Sequence

from repro.mneme import SMALL_OBJECT_MAX, SMALL_SEGMENT_BYTES

_DICT_RECORD = struct.Struct("<IIIQHIQ")
_DOC_RECORD = struct.Struct("<IIH")
_FIXED_HEADER = struct.Struct("<4sHHII")
_SLOT = struct.Struct(f"<I{SMALL_OBJECT_MAX}s")
_DIR_HEADER = struct.Struct("<4sHHI")
_DIR_ENTRY = struct.Struct("<III")


def dictionary_bytes(dictionary) -> bytes:
    """A v3 dictionary file: every chain in bucket order, head first."""
    parts = [struct.pack(
        "<III", dictionary._V3_MAGIC, len(dictionary), dictionary._next_id
    )]
    for entry in dictionary.entries():
        raw = entry.term.encode("utf-8")
        parts.append(_DICT_RECORD.pack(
            entry.term_id, entry.df, entry.ctf, entry.storage_key,
            len(raw), entry.max_tf, entry.bounds_key,
        ))
        parts.append(raw)
    return b"".join(parts)


def doctable_bytes(doctable) -> bytes:
    """A document table file: the row count, then rows by doc id."""
    parts = [struct.pack("<I", len(doctable.lengths))]
    for doc_id in sorted(doctable.lengths):
        raw = doctable.names.get(doc_id, "").encode("utf-8")
        parts.append(_DOC_RECORD.pack(doc_id, doctable.lengths[doc_id], len(raw)))
        parts.append(raw)
    return b"".join(parts)


def fixed_segment_bytes(
    pool_id: int, logseg: int, slots: Sequence[Optional[bytes]]
) -> bytes:
    """A small-pool segment holding ``slots`` (``None``: empty)."""
    body = b"".join(
        _SLOT.pack(0xFFFFFFFF, b"") if data is None else _SLOT.pack(len(data), data)
        for data in slots
    )
    used = sum(data is not None for data in slots)
    payload = _FIXED_HEADER.pack(
        b"MSGF", pool_id, used, zlib.crc32(body), logseg
    ) + body
    return payload + b"\x00" * (SMALL_SEGMENT_BYTES - len(payload))


def directory_segment_bytes(pool_id: int, objects: dict, pad_to: int = 0) -> bytes:
    """A medium or large segment holding ``objects`` (oid -> payload):
    the directory and then the payloads, both in oid order, zero-padded
    to ``pad_to``."""
    base = _DIR_HEADER.size + _DIR_ENTRY.size * len(objects)
    entries, payload = [], b""
    for oid in sorted(objects):
        entries.append(_DIR_ENTRY.pack(oid, base + len(payload), len(objects[oid])))
        payload += objects[oid]
    body = b"".join(entries) + payload
    out = _DIR_HEADER.pack(b"MSGD", pool_id, len(objects), zlib.crc32(body)) + body
    return out + b"\x00" * max(0, pad_to - len(out))
