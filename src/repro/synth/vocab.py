"""Synthetic vocabulary: deterministic term strings for term ranks."""

from typing import List

import numpy as np

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def term_string(rank: int) -> str:
    """A stable, unique word for a 0-based term rank.

    Rank is rendered in base 26 with a ``w`` prefix so the strings are
    valid tokenizer output, never collide with query-language syntax,
    and never stem into each other (digits-free but prefix-stable).
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    digits = []
    value = rank
    while True:
        value, remainder = divmod(value, 26)
        digits.append(_ALPHABET[remainder])
        if value == 0:
            break
    return "w" + "".join(reversed(digits))


def term_strings(ranks) -> List[str]:
    """:func:`term_string` of every rank in ``ranks``, in one vector pass.

    The digits of all ranks are written into one byte buffer, newline
    separated, and split into strings by a single ``str.split``.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        return []
    if int(ranks.min()) < 0:
        raise ValueError("rank must be non-negative")
    digits = np.ones(ranks.size, dtype=np.int64)
    rest = ranks // 26
    while rest.any():
        digits += rest > 0
        rest //= 26
    lengths = digits + 2  # "w", the digits, the separator
    starts = np.cumsum(lengths) - lengths
    out = np.full(int(starts[-1] + lengths[-1]), ord("\n"), dtype=np.uint8)
    out[starts] = ord("w")
    value = ranks.copy()
    for k in range(int(digits.max())):  # least significant digit first
        live = np.flatnonzero(digits > k)
        out[starts[live] + digits[live] - k] = ord("a") + value[live] % 26
        value //= 26
    return out[:-1].tobytes().decode("ascii").split("\n")


def term_rank(term: str) -> int:
    """Inverse of :func:`term_string`."""
    if not term.startswith("w") or len(term) < 2:
        raise ValueError(f"not a synthetic term: {term!r}")
    value = 0
    for char in term[1:]:
        value = value * 26 + _ALPHABET.index(char)
    return value
