"""Array-backed belief tables and INQUERY combination kernels.

A reference belief table is ``(dict, default)``; the fast path swaps
the dict for :class:`ArrayBeliefs` (sorted document-id vector + belief
vector) and keeps the same tuple shape, so the two table kinds mix
freely inside one evaluation.

Bit-identity discipline: every kernel folds beliefs in exactly the
left-to-right order of the reference operators in
:mod:`repro.inquery.network` using the same elementwise IEEE-754
operations, so a fast evaluation's beliefs — and therefore its ranking
— equal the reference evaluation's bit for bit.  (That is also why the
kernels accumulate sequentially per child rather than using pairwise
``np.sum`` reductions.)
"""

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np


class ArrayBeliefs:
    """Per-document beliefs as parallel sorted arrays."""

    __slots__ = ("doc_ids", "beliefs")

    def __init__(self, doc_ids: np.ndarray, beliefs: np.ndarray):
        self.doc_ids = doc_ids
        self.beliefs = beliefs

    def __len__(self) -> int:
        return int(self.doc_ids.size)

    def to_dict(self) -> Dict[int, float]:
        return dict(zip(self.doc_ids.tolist(), self.beliefs.tolist()))


#: Either belief-table payload: reference dict or fast arrays.
Scores = Union[Dict[int, float], ArrayBeliefs]
#: A node's evaluation, fast or reference: (scores, default belief).
Table = Tuple[Scores, float]


def as_arrays(scores: Scores) -> ArrayBeliefs:
    """Normalize either table payload to sorted arrays."""
    if isinstance(scores, ArrayBeliefs):
        return scores
    doc_ids = np.array(sorted(scores), dtype=np.int64)
    beliefs = np.fromiter(
        (scores[d] for d in doc_ids.tolist()), dtype=np.float64,
        count=doc_ids.size,
    )
    return ArrayBeliefs(doc_ids, beliefs)


def term_beliefs(
    doc_ids: np.ndarray,
    tf: np.ndarray,
    doc_lengths: np.ndarray,
    idf_w: float,
    avg_len: float,
    default: float,
) -> ArrayBeliefs:
    """Vectorized INQUERY term belief: ``0.4 + 0.6 * tf_w * idf_w``.

    The expressions mirror the reference
    ``InferenceNetwork._beliefs`` operation for operation
    (same association order), so each belief is bit-identical to the
    scalar computation.
    """
    tf_f = tf.astype(np.float64)
    len_f = doc_lengths.astype(np.float64)
    tf_w = tf_f / (tf_f + 0.5 + 1.5 * len_f / avg_len)
    beliefs = default + (1.0 - default) * tf_w * idf_w
    return ArrayBeliefs(doc_ids, beliefs)


def sorted_union(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted distinct ids of several runs that are each already sorted.

    What ``np.unique(np.concatenate(runs))`` returns, without numpy's
    hash-based ``unique``: a stable sort (which merges the presorted
    runs) and a neighbour mask.
    """
    merged = np.concatenate(runs)
    if merged.size < 2:
        return merged
    merged.sort(kind="stable")
    distinct = np.empty(merged.size, dtype=bool)
    distinct[0] = True
    np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
    return merged[distinct]


def _union_and_spread(tables: Sequence[Table]) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Union the tables' documents; give every table a dense column.

    Documents absent from a table take that table's default belief —
    the array analogue of ``scores.get(doc, default)``.
    """
    arrays = [as_arrays(scores) for scores, _default in tables]
    populated = [a.doc_ids for a in arrays if a.doc_ids.size]
    if not populated:
        docs = np.empty(0, dtype=np.int64)
    elif len(populated) == 1:
        docs = populated[0]
    else:
        docs = sorted_union(populated)
    columns: List[np.ndarray] = []
    for array, (_scores, default) in zip(arrays, tables):
        column = np.full(docs.size, default, dtype=np.float64)
        if array.doc_ids.size:
            column[np.searchsorted(docs, array.doc_ids)] = array.beliefs
        columns.append(column)
    return docs, columns


def combine_sum(tables: Sequence[Table]) -> Table:
    docs, columns = _union_and_spread(tables)
    acc = np.zeros(docs.size, dtype=np.float64)
    for column in columns:
        acc = acc + column
    scores = ArrayBeliefs(docs, acc / len(tables))
    default = sum(d for _s, d in tables) / len(tables)
    return scores, default


def combine_wsum(tables: Sequence[Table], weights: Sequence[float], total: float) -> Table:
    docs, columns = _union_and_spread(tables)
    acc = np.zeros(docs.size, dtype=np.float64)
    for weight, column in zip(weights, columns):
        acc = acc + weight * column
    scores = ArrayBeliefs(docs, acc / total)
    default = sum(w * d for w, (_s, d) in zip(weights, tables)) / total
    return scores, default


def combine_and(tables: Sequence[Table]) -> Table:
    docs, columns = _union_and_spread(tables)
    acc = np.ones(docs.size, dtype=np.float64)
    for column in columns:
        acc = acc * column
    default = 1.0
    for _scores, d in tables:
        default *= d
    return ArrayBeliefs(docs, acc), default


def combine_or(tables: Sequence[Table]) -> Table:
    docs, columns = _union_and_spread(tables)
    acc = np.ones(docs.size, dtype=np.float64)
    for column in columns:
        acc = acc * (1.0 - column)
    default = 1.0
    for _scores, d in tables:
        default *= 1.0 - d
    return ArrayBeliefs(docs, 1.0 - acc), 1.0 - default


def combine_not(tables: Sequence[Table]) -> Table:
    docs, columns = _union_and_spread(tables)
    return ArrayBeliefs(docs, 1.0 - columns[0]), 1.0 - tables[0][1]


def combine_max(tables: Sequence[Table]) -> Table:
    docs, columns = _union_and_spread(tables)
    acc: Optional[np.ndarray] = None
    for column in columns:
        acc = column if acc is None else np.maximum(acc, column)
    if acc is None:
        acc = np.empty(0, dtype=np.float64)
    default = max(d for _s, d in tables)
    return ArrayBeliefs(docs, acc), default
