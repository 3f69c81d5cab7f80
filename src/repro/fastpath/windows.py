"""Vectorized position-window matching for proximity operators.

The reference implementations — ``_match_count`` in
:mod:`repro.inquery.network` (the ``#phrase``/``#odN``/``#uwN``
position merge, one document at a time) and ``best_window`` in
:mod:`repro.inquery.matches` (the snippet window scan) — walk Python
position lists element by element.  These kernels compute the
identical results with bulk numpy operations: same match counts
(duplicate positions and window size 1 included), same best-window
tuple (first-maximum tie-breaking included).

:func:`match_counts_for_docs` matches every candidate document of an
operator in one merge.  Each term's positions in the common documents
are gathered into one column and packed into int64 keys ``slot *
stride + position``, where ``slot`` is the document's index in
``common``.  Positions are token offsets, so they span ``[0, span]``
with ``span`` the largest gathered one.  The window is first clamped to
span + 1: no two positions of one document are further apart than the
span, so every window at least that wide matches exactly what span + 1
does, and the clamp keeps ``key + window`` inside int64 however large
``#odN`` or ``#uwN`` is.  ``stride`` is span + window + 1, so a key of
another document is always more than a window away: the per-document
merges — the ordered chain (``#phrase`` is its one-position case) and
the unordered neighbour test — run unchanged on the packed keys, and
the surviving first-term keys' slots are then counted.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def _as_array(positions: Sequence[int]) -> np.ndarray:
    return np.asarray(positions, dtype=np.int64)


def _gather(arrays, common: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(slots, positions)`` of one term's postings in ``common``."""
    idx = np.searchsorted(arrays.doc_ids, common)
    tf = arrays.tf[idx]
    ends = np.cumsum(tf)
    # Position i of the gather belongs to slot s and sits at
    # pos_starts[s] + (i - first gathered index of s).
    shift = np.repeat(arrays.pos_starts[idx] - (ends - tf), tf)
    slots = np.repeat(np.arange(common.size, dtype=np.int64), tf)
    return slots, arrays.positions[shift + np.arange(shift.size)]


def match_counts_for_docs(
    term_arrays: Sequence, common: np.ndarray, ordered: bool, window: int
) -> np.ndarray:
    """Per-document match counts (int64) over the terms' common documents.

    ``term_arrays`` are :class:`~repro.fastpath.codec.RecordArrays`;
    ``common`` the sorted intersection of their document ids.  Entry
    ``i`` is bit-for-bit the reference
    :func:`repro.inquery.network._match_count` on document
    ``common[i]`` — including its ``set()`` deduplication on the phrase
    branch and duplicate counting on the ordered/unordered branches.
    """
    gathered = [_gather(arrays, common) for arrays in term_arrays]
    if any(positions.size == 0 for _slots, positions in gathered):
        return np.zeros(common.size, dtype=np.int64)
    span = max(int(positions.max()) for _slots, positions in gathered)
    # The reference's exact-phrase branch is the ordered chain with a
    # one-position window over the first term's *distinct* positions.
    phrase = ordered and window <= 1
    window = 1 if phrase else min(window, span + 1)
    stride = span + window + 1
    keys = [slots * stride + positions for slots, positions in gathered]
    anchors = np.unique(keys[0]) if phrase else np.sort(keys[0])
    ok = np.ones(anchors.size, dtype=bool)
    current = anchors
    for rest in keys[1:]:
        rest = np.sort(rest)
        if ordered:
            # #odN: the first key strictly after `current` must fall
            # within the window.  Failed lanes carry a stale `current`;
            # their ok bit is already False.
            nxt = np.searchsorted(rest, current, side="right")
            following = rest[np.minimum(nxt, rest.size - 1)]
            ok &= (nxt < rest.size) & (following <= current + window)
            current = following
        else:
            # #uwN: the nearest key on either side within the window.
            right = np.searchsorted(rest, anchors)
            after = rest[np.minimum(right, rest.size - 1)]
            before = rest[np.maximum(right - 1, 0)]
            ok &= (np.abs(after - anchors) <= window) | (
                np.abs(anchors - before) <= window
            )
    slots = anchors[ok] // stride
    return np.bincount(slots, minlength=common.size).astype(np.int64, copy=False)


def record_positions_for_doc(record: bytes, doc_id: int) -> Optional[Tuple[int, ...]]:
    """One document's positions from an encoded record, or ``None``.

    The array analogue of ``dict(decode_record(record)).get(doc_id)``
    — it decodes columnar and slices one document instead of
    materializing every posting tuple.
    """
    from .codec import decode_record_arrays

    arrays = decode_record_arrays(record)
    idx = int(np.searchsorted(arrays.doc_ids, doc_id))
    if idx >= arrays.df or int(arrays.doc_ids[idx]) != doc_id:
        return None
    start = int(arrays.pos_starts[idx])
    return tuple(arrays.positions[start:start + int(arrays.tf[idx])].tolist())


def best_window(
    by_term: Dict[str, Sequence[int]], window: int
) -> Tuple[int, int, int]:
    """The ``window``-token span covering the most distinct terms.

    Identical to the reference sliding scan in
    :mod:`repro.inquery.matches` — events ordered by ``(position,
    term)``, the *first* window reaching the maximum distinct count
    wins, and no matches yield ``(0, window, 0)``.
    """
    terms = sorted(by_term)
    sizes = [len(by_term[term]) for term in terms]
    total = sum(sizes)
    if total == 0:
        return 0, window, 0
    positions = np.empty(total, dtype=np.int64)
    term_ids = np.empty(total, dtype=np.int64)
    offset = 0
    for term_id, term in enumerate(terms):
        chunk = _as_array(by_term[term])
        positions[offset:offset + chunk.size] = chunk
        term_ids[offset:offset + chunk.size] = term_id
        offset += chunk.size
    # Event order (position, term): term ids follow the terms' sort
    # order, so this lexsort reproduces the reference tuple sort.
    order = np.lexsort((term_ids, positions))
    positions = positions[order]
    term_ids = term_ids[order]
    n = total

    # Left edge of the window ending at each event.
    left = np.searchsorted(positions, positions - window + 1, side="left")
    # prev[i]: index of the previous event with the same term (-1 if none).
    prev = np.full(n, -1, dtype=np.int64)
    for term_id in range(len(terms)):
        idx = np.nonzero(term_ids == term_id)[0]
        prev[idx[1:]] = idx[:-1]
    # Event i is a repeat inside the window ending at r exactly when
    # l_r <= prev[i] and i <= r; since left is non-decreasing that is
    # the index range [i, first r with l_r > prev[i]).
    repeat_until = np.searchsorted(left, prev, side="right")
    has_prev = prev >= 0
    event_idx = np.arange(n)
    active = has_prev & (repeat_until > event_idx)
    delta = np.zeros(n + 1, dtype=np.int64)
    np.add.at(delta, event_idx[active], 1)
    np.add.at(delta, repeat_until[active], -1)
    repeats = np.cumsum(delta[:n])
    distinct = event_idx - left + 1 - repeats

    best = int(distinct.max())
    if best <= 1:
        start = int(positions[0])
        return start, start + window, 1
    r = int(np.argmax(distinct))  # first window reaching the maximum
    start = int(positions[left[r]])
    return start, start + window, best
