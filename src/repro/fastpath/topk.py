"""Top-k ranking kernels.

Document ranking orders by ``(-belief, doc_id)`` and keeps the best
``k``.  The reference engine sorted the entire score table; these
kernels select the top ``k`` in O(n log k) (heap) or O(n + k log k)
(partition) while producing the *identical* ranked list, boundary ties
included.
"""

import heapq
from typing import Dict, List, Tuple, Union

import numpy as np

from .beliefs import ArrayBeliefs, DenseBeliefs

Ranking = List[Tuple[int, float]]


def rank(
    scores: Union[Dict[int, float], ArrayBeliefs, DenseBeliefs], k: int
) -> Ranking:
    """The best ``k`` of a score table in any representation.

    A dense accumulator ranks its touched documents only — the
    reference table's documents.
    """
    if isinstance(scores, dict):
        return rank_dict(scores, k)
    if isinstance(scores, DenseBeliefs):
        scores = scores.to_arrays()
    return rank_arrays(scores, k)


def rank_dict(scores: Dict[int, float], k: int) -> Ranking:
    """Heap-select the top ``k`` of a reference score dict."""
    if k <= 0:
        return []
    return heapq.nsmallest(k, scores.items(), key=lambda item: (-item[1], item[0]))


def rank_arrays(scores: ArrayBeliefs, k: int) -> Ranking:
    """Partition-select the top ``k`` of an array score table."""
    doc_ids, beliefs = scores.doc_ids, scores.beliefs
    n = int(doc_ids.size)
    if k <= 0 or n == 0:
        return []
    if n > k:
        # Partition on belief alone, then widen to every document tied
        # with the k-th belief so the doc-id tiebreak stays exact.
        cutoff_idx = np.argpartition(beliefs, n - k)[n - k]
        cutoff = beliefs[cutoff_idx]
        keep = np.nonzero(beliefs >= cutoff)[0]
        doc_ids, beliefs = doc_ids[keep], beliefs[keep]
    order = np.lexsort((doc_ids, -beliefs))[:k]
    return list(zip(doc_ids[order].tolist(), beliefs[order].tolist()))
