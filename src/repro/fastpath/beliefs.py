"""Belief tables in doc-id space and the INQUERY combination kernels.

A reference belief table is ``(dict, default)``: the beliefs of the
documents some evidence touched, plus one default belief for every
other document.  The fast path keeps the tuple shape and swaps the dict
for :class:`DenseBeliefs`, the document-indexed *accumulator* of
INQUERY-style term-at-a-time evaluation: one ``float64`` column over the
collection's doc-id space (:class:`DocIdSpace`) plus a ``touched`` mask.

* A leaf scatters its beliefs into a fresh column whose other slots hold
  the leaf's default, and marks the scattered slots touched.
* A combination folds its children's columns elementwise over the whole
  column; its ``touched`` is the OR of the children's masks.

Every untouched slot holds exactly its table's scalar default: leaves
start that way, and each kernel computes its scalar default with the
same operations, in the same order, as it applies to every slot — so an
untouched slot of the output is the fold of the children's defaults.
Nothing is unioned by sorting and nothing is placed by search.

Bit-identity discipline: every kernel folds beliefs in exactly the
left-to-right order of the reference operators in
:mod:`repro.inquery.network` using the same elementwise IEEE-754
operations, so a fast evaluation's beliefs — and therefore its ranking
— equal the reference evaluation's bit for bit.  (That is also why the
kernels accumulate sequentially per child rather than using pairwise
``np.sum`` reductions, and why every scalar fold is
:func:`~repro.inquery.network.left_sum`, never builtin ``sum``.)
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..inquery.network import left_sum


class ArrayBeliefs:
    """Per-document beliefs as parallel sorted arrays."""

    __slots__ = ("doc_ids", "beliefs")

    def __init__(self, doc_ids: np.ndarray, beliefs: np.ndarray):
        self.doc_ids = doc_ids
        self.beliefs = beliefs

    def __len__(self) -> int:
        return int(self.doc_ids.size)


class DocIdSpace:
    """A document table's ids as accumulator slots.

    Dense ids (``max_id <= 2n + 1024``, every collection this repository
    builds): the slot *is* the id and ``span = max_id + 1``.  Sparse
    ids: a slot is the id's rank among the sorted ids, found by one
    monotone ``searchsorted`` per leaf — the only place sparsity exists,
    so the kernels see slots only.  ``lengths[slot]`` is the document's
    length (0 on a dense slot no document holds).
    """

    __slots__ = ("span", "lengths", "_sorted_ids")

    def __init__(self, lengths: Dict[int, int]):
        n = len(lengths)
        ids = np.fromiter(lengths, dtype=np.int64, count=n)
        values = np.fromiter(lengths.values(), dtype=np.int64, count=n)
        max_id = int(ids.max()) if n else 0
        if max_id <= 2 * n + 1024:
            self._sorted_ids: Optional[np.ndarray] = None
            self.span = max_id + 1
            self.lengths = np.zeros(self.span, dtype=np.int64)
            self.lengths[ids] = values
        else:
            order = np.argsort(ids)
            self._sorted_ids = ids[order]
            self.span = n
            self.lengths = values[order]

    def slots(self, doc_ids: np.ndarray) -> np.ndarray:
        """Slots of document ids the table holds."""
        if self._sorted_ids is None:
            return doc_ids
        return np.searchsorted(self._sorted_ids, doc_ids)

    def doc_ids(self, slots: np.ndarray) -> np.ndarray:
        """Document ids of slots (inverse of :meth:`slots`)."""
        return slots if self._sorted_ids is None else self._sorted_ids[slots]

    def lengths_of(self, doc_ids: np.ndarray) -> np.ndarray:
        return self.lengths[self.slots(doc_ids)]


def doc_id_space(doctable) -> DocIdSpace:
    """The table's :class:`DocIdSpace`, built on first use after a mutation.

    The table keeps it until its next ``add``/``remove``, so a query pays
    for the walk over every document only after a mutation.
    """
    space = doctable.id_space
    if space is None:
        space = doctable.id_space = DocIdSpace(doctable.lengths)
    return space


class DenseBeliefs:
    """A node's beliefs over every slot of a :class:`DocIdSpace`.

    ``column`` and ``touched`` are read-only (a kernel may hand a
    child's array on as its own); ``len()`` is the number of touched
    documents — the reference table's ``len``.
    """

    __slots__ = ("space", "column", "touched", "count")

    def __init__(self, space: DocIdSpace, column: np.ndarray,
                 touched: np.ndarray, count: int):
        column.flags.writeable = False
        touched.flags.writeable = False
        self.space = space
        self.column = column
        self.touched = touched
        self.count = count

    def __len__(self) -> int:
        return self.count

    def to_arrays(self) -> ArrayBeliefs:
        """The touched documents' beliefs, in doc-id order."""
        slots = np.flatnonzero(self.touched)
        return ArrayBeliefs(self.space.doc_ids(slots), self.column[slots])


#: A fast node's evaluation: (dense beliefs, default belief).
Table = Tuple[DenseBeliefs, float]


def term_beliefs(
    tf: np.ndarray,
    doc_lengths: np.ndarray,
    idf_w: float,
    avg_len: float,
    default: float,
) -> np.ndarray:
    """Vectorized INQUERY term belief: ``0.4 + 0.6 * tf_w * idf_w``.

    The expressions mirror the reference
    ``InferenceNetwork._beliefs`` operation for operation
    (same association order), so each belief is bit-identical to the
    scalar computation.
    """
    tf_f = tf.astype(np.float64)
    len_f = doc_lengths.astype(np.float64)
    tf_w = tf_f / (tf_f + 0.5 + 1.5 * len_f / avg_len)
    return default + (1.0 - default) * tf_w * idf_w


def scatter_leaf(space: DocIdSpace, slots: np.ndarray, beliefs: np.ndarray,
                 default: float) -> Table:
    """A leaf's table: ``beliefs`` at ``slots``, ``default`` elsewhere."""
    column = np.full(space.span, default, dtype=np.float64)
    column[slots] = beliefs
    touched = np.zeros(space.span, dtype=bool)
    touched[slots] = True
    return DenseBeliefs(space, column, touched, int(slots.size)), default


def sorted_union(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Sorted distinct ids of several runs that are each already sorted.

    What ``np.unique(np.concatenate(runs))`` returns, without numpy's
    hash-based ``unique``: a stable sort (which merges the presorted
    runs) and a neighbour mask.  The document-at-a-time window code's
    union; term-at-a-time tables need none.
    """
    merged = np.concatenate(runs)
    if merged.size < 2:
        return merged
    merged.sort(kind="stable")
    distinct = np.empty(merged.size, dtype=bool)
    distinct[0] = True
    np.not_equal(merged[1:], merged[:-1], out=distinct[1:])
    return merged[distinct]


def _combined(tables: Sequence[Table], column: np.ndarray, default: float) -> Table:
    """Wrap a folded column; touched where any child was touched."""
    first = tables[0][0]
    touched = first.touched
    if len(tables) > 1:
        touched = touched.copy()
        for scores, _default in tables[1:]:
            np.logical_or(touched, scores.touched, out=touched)
    count = first.count if len(tables) == 1 else int(np.count_nonzero(touched))
    return DenseBeliefs(first.space, column, touched, count), default


def combine_sum(tables: Sequence[Table]) -> Table:
    acc = np.zeros(tables[0][0].space.span, dtype=np.float64)
    for scores, _default in tables:
        np.add(acc, scores.column, out=acc)
    np.divide(acc, len(tables), out=acc)
    return _combined(tables, acc, left_sum(d for _s, d in tables) / len(tables))


def combine_wsum(tables: Sequence[Table], weights: Sequence[float], total: float) -> Table:
    span = tables[0][0].space.span
    acc = np.zeros(span, dtype=np.float64)
    term = np.empty(span, dtype=np.float64)
    for weight, (scores, _default) in zip(weights, tables):
        np.multiply(weight, scores.column, out=term)
        np.add(acc, term, out=acc)
    np.divide(acc, total, out=acc)
    default = left_sum(w * d for w, (_s, d) in zip(weights, tables)) / total
    return _combined(tables, acc, default)


def combine_and(tables: Sequence[Table]) -> Table:
    acc = np.ones(tables[0][0].space.span, dtype=np.float64)
    default = 1.0
    for scores, d in tables:
        np.multiply(acc, scores.column, out=acc)
        default *= d
    return _combined(tables, acc, default)


def combine_or(tables: Sequence[Table]) -> Table:
    span = tables[0][0].space.span
    acc = np.ones(span, dtype=np.float64)
    miss = np.empty(span, dtype=np.float64)
    default = 1.0
    for scores, d in tables:
        np.subtract(1.0, scores.column, out=miss)
        np.multiply(acc, miss, out=acc)
        default *= 1.0 - d
    np.subtract(1.0, acc, out=acc)
    return _combined(tables, acc, 1.0 - default)


def combine_not(tables: Sequence[Table]) -> Table:
    scores, default = tables[0]
    return _combined(tables, 1.0 - scores.column, 1.0 - default)


def combine_max(tables: Sequence[Table]) -> Table:
    acc = tables[0][0].column
    if len(tables) > 1:
        acc = np.maximum(acc, tables[1][0].column)
        for scores, _default in tables[2:]:
            np.maximum(acc, scores.column, out=acc)
    return _combined(tables, acc, max(d for _s, d in tables))
