"""Vectorized position-window matching for proximity operators.

The reference implementation — ``_match_count`` in
:mod:`repro.inquery.network`, the ``#phrase``/``#odN``/``#uwN``
position merge one document at a time — walks Python position lists
element by element.  This kernel computes the identical match counts
with bulk numpy operations, duplicate positions and window size 1
included.

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

from typing import Sequence, Tuple

import numpy as np


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
