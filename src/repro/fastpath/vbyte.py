"""Bulk v-byte kernels: whole-buffer decode, whole-vector encode.

The reference codec (:mod:`repro.inquery.postings`) walks one byte at a
time per integer; these kernels scan the complete byte buffer (or value
vector) with numpy primitives instead.  The encoding is the standard
7-bit little-endian variable-byte format, so output bytes are identical
to the reference encoder's.

Both kernels stay within 63-bit magnitudes (9 v-byte groups).  The
reference decoder accepts arbitrarily large Python integers; callers
that may encounter wider values fall back to the scalar path — the
structured record codec does exactly that.
"""

from typing import Tuple

import numpy as np

from ..errors import IndexError_

#: Largest value the vector kernels handle (9 seven-bit groups).
MAX_GROUPS = 9
MAX_VALUE = (1 << (7 * MAX_GROUPS)) - 1


def decode_stream(data: bytes) -> Tuple[np.ndarray, bool]:
    """Decode every complete v-byte integer in ``data`` at once.

    Returns ``(values, clean)`` where ``values`` is a ``uint64`` vector
    of the complete integers found and ``clean`` is ``False`` when the
    buffer ends inside an unterminated integer (the trailing partial
    group is dropped; the caller decides whether that is an error).

    Raises
    ------
    IndexError_
        If any integer spans more than :data:`MAX_GROUPS` bytes (the
        caller should fall back to the scalar decoder).
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size == 0:
        return np.empty(0, dtype=np.uint64), True
    ends = np.flatnonzero(raw < 0x80)
    if ends.size == 0:
        return np.empty(0, dtype=np.uint64), False
    return decode_at(raw, ends), int(ends[-1]) == raw.size - 1


def decode_at(raw: np.ndarray, ends: np.ndarray, start: int = 0) -> np.ndarray:
    """The integers whose last bytes are ``raw[ends]``, the first of
    them starting at byte ``start``: :func:`decode_stream` for a caller
    that has already found the terminators.

    Raises
    ------
    IndexError_
        If any integer spans more than :data:`MAX_GROUPS` bytes.
    """
    # Length classes: a one-byte integer *is* its terminator byte, and
    # in postings records almost every integer is one byte.  Take those
    # directly and fix up the multi-byte ones sparsely.
    values = raw[ends].astype(np.uint64)
    if ends.size == int(ends[-1]) - start + 1:
        return values
    lengths = np.empty(ends.size, dtype=np.int64)
    lengths[0] = ends[0] - start + 1
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    multi = np.flatnonzero(lengths > 1)
    wide = lengths[multi]
    widest = int(wide.max())
    if widest > MAX_GROUPS:
        raise IndexError_("v-byte integer too wide for the vector decoder")
    starts = ends[multi] - wide + 1
    fixed = values[multi] << (7 * (wide - 1)).astype(np.uint64)
    fixed |= (raw[starts] & 0x7F).astype(np.uint64)  # byte 0: always a continuation
    for k in range(1, widest - 1):
        longer = np.flatnonzero(wide > k + 1)  # byte k is a continuation
        fixed[longer] |= (
            (raw[starts[longer] + k] & 0x7F).astype(np.uint64) << np.uint64(7 * k)
        )
    values[multi] = fixed
    return values


def encode_stream(values: np.ndarray) -> Tuple[bytes, np.ndarray]:
    """Encode a vector of unsigned integers into one v-byte buffer.

    Returns ``(buffer, byte_lengths)``; ``byte_lengths[i]`` is the
    encoded size of ``values[i]``, so callers can slice the buffer into
    sub-records with a cumulative sum.

    Raises
    ------
    IndexError_
        On negative input (mirrors the reference encoder) or values
        beyond :data:`MAX_VALUE`.
    """
    v = np.asarray(values)
    if v.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    if v.dtype.kind not in "ui":
        raise IndexError_("v-byte encoder requires integer input")
    if v.dtype.kind == "i" and int(v.min()) < 0:
        bad = int(v[v < 0][0])
        raise IndexError_(f"cannot v-byte encode negative value {bad}")
    v = v.astype(np.uint64)
    largest = int(v.max())
    if largest > MAX_VALUE:
        raise IndexError_("value too wide for the vector encoder")
    # Only the groups the largest value needs: postings values mostly
    # fit in one or two.
    widest = max(1, -(-largest.bit_length() // 7))
    lengths = np.ones(v.size, dtype=np.int64)
    for k in range(1, widest):
        lengths += v >= np.uint64(1 << (7 * k))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    for k in range(widest):
        # Group k of every value that has one: seven payload bits, plus
        # the continuation bit unless it is the value's last group.
        live = slice(None) if k == 0 else np.flatnonzero(lengths > k)
        group = (v[live] >> np.uint64(7 * k)).astype(np.uint8) & np.uint8(0x7F)
        group[lengths[live] > k + 1] |= np.uint8(0x80)
        out[starts[live] + k] = group
    return out.tobytes(), lengths
