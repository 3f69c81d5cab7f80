"""Fast-path inference network: vectorized belief evaluation.

:class:`FastInferenceNetwork` subclasses the reference
:class:`~repro.inquery.network.InferenceNetwork` and overrides only its
representation hooks: leaf evidence is a
:class:`~repro.fastpath.codec.RecordArrays` instead of a posting list,
and the per-document dict arithmetic becomes the array kernels in
:mod:`repro.fastpath.beliefs`.  Structure, traversal order, the
two-phase leaf protocol, storage accesses, and simulated-clock charges
are the reference network's; only the real CPU time changes.

Proximity operators (``#phrase``/``#odN``/``#uwN``) run the vectorized
window matching in :mod:`repro.fastpath.windows`; synonym groups keep
the reference union over posting lists (their position union is not a
hot spot), fed from the same array reads so a term is one kind of
provider read — one memo entry, one term-cache entry — whatever leaf
mentions it.  Reference dict tables mix with array tables
transparently inside the combination kernels.
"""

from typing import List, Optional

import numpy as np

from ..inquery.network import DEFAULT_BELIEF, InferenceNetwork, LeafSlot, inquery_idf
from ..inquery.postings import Posting
from ..inquery.query import OpNode
from .beliefs import (
    Table,
    combine_and,
    combine_max,
    combine_not,
    combine_or,
    combine_sum,
    combine_wsum,
    term_beliefs,
)
from .codec import RecordArrays


def _counted(arrays: Optional[RecordArrays]) -> LeafSlot:
    return (arrays, arrays.df) if arrays is not None and arrays.df else (None, 0)


class FastInferenceNetwork(InferenceNetwork):
    """Array-kernel evaluation with reference-identical results.

    The provider must offer ``postings_arrays(term)`` — the same storage
    access and simulated charges as ``postings``, returning the columnar
    decode — and ``doc_length_array(doc_ids)``.
    """

    # -- leaves ---------------------------------------------------------------

    def _term_evidence(self, term: str) -> LeafSlot:
        return _counted(self._provider.postings_arrays(term))

    def _member_postings(self, term: str) -> Optional[List[Posting]]:
        arrays = self._provider.postings_arrays(term)
        return None if arrays is None else arrays.to_postings()

    def _beliefs(self, evidence, df: int) -> Table:
        if not isinstance(evidence, RecordArrays):
            return super()._beliefs(evidence, df)  # synonym list, or nothing
        provider = self._provider
        n_docs = max(provider.doc_count, 1)
        avg_len = max(provider.average_doc_length, 1.0)
        scores = term_beliefs(
            evidence.doc_ids, evidence.tf,
            provider.doc_length_array(evidence.doc_ids),
            inquery_idf(n_docs, df), avg_len, DEFAULT_BELIEF,
        )
        provider.charge_combine(len(scores))
        return scores, DEFAULT_BELIEF

    def _proximity_evidence(self, node: OpNode, ordered: bool, window: int) -> LeafSlot:
        """Vectorized window matching; reference-identical virtual term.

        Storage accesses and simulated charges replicate the reference
        order exactly: children fetched left to right with an early
        return on the first missing term, then one combine charge for
        the merged document frequencies.
        """
        from .windows import match_counts_for_docs

        provider = self._provider
        term_arrays = []
        for child in node.children:
            arrays = provider.postings_arrays(child.term)
            if arrays is None or arrays.df == 0:
                return None, 0  # a missing word kills the phrase
            term_arrays.append(arrays)
        common = term_arrays[0].doc_ids
        for arrays in term_arrays[1:]:
            common = common[np.isin(common, arrays.doc_ids, assume_unique=True)]
        counts = match_counts_for_docs(term_arrays, common, ordered, window)
        matched = counts > 0
        provider.charge_combine(sum(arrays.df for arrays in term_arrays))
        empty = np.empty(0, dtype=np.int64)
        return _counted(RecordArrays(common[matched], counts[matched], empty, empty))

    # -- combination operators -------------------------------------------------

    def _charged(self, tables: List[Table], combined: Table) -> Table:
        self._provider.charge_combine(len(combined[0]) * len(tables))
        return combined

    def _eval_sum(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_sum(tables))

    def _eval_wsum(self, node: OpNode, tables: List[Table]) -> Table:
        weights = node.weights
        return self._charged(tables, combine_wsum(tables, weights, sum(weights)))

    def _eval_and(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_and(tables))

    def _eval_or(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_or(tables))

    def _eval_not(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_not(tables))

    def _eval_max(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_max(tables))
