"""Fast-path inference network: term-at-a-time over a dense accumulator.

:class:`FastInferenceNetwork` subclasses the reference
:class:`~repro.inquery.network.InferenceNetwork` and overrides only its
representation hooks: leaf evidence is a
:class:`~repro.fastpath.codec.RecordArrays` instead of a posting list,
and every belief table is a :class:`~repro.fastpath.beliefs.DenseBeliefs`
— a column over the collection's doc-id space plus a touched mask —
instead of a dict.  A leaf scatters its beliefs into a column once; every
combination operator is an elementwise fold over its children's
columns (:mod:`repro.fastpath.beliefs`).  Structure, traversal order,
the two-phase leaf protocol, storage accesses, and simulated-clock
charges are the reference network's — each charge that counts a
reference table's documents counts the touched mask's population — so
only the real CPU time changes.

Proximity operators (``#phrase``/``#odN``/``#uwN``) run the vectorized
window matching in :mod:`repro.fastpath.windows`; synonym groups union
their members' ``(doc, position)`` pairs as arrays.  Both read through
``postings_arrays``, so a term is one kind of provider read — one memo
entry, one term-cache entry — whatever leaf mentions it.
"""

from typing import List

import numpy as np

from ..inquery.network import (
    DEFAULT_BELIEF,
    InferenceNetwork,
    LeafSlot,
    inquery_idf,
    left_sum,
)
from ..inquery.query import OpNode
from .beliefs import (
    Table,
    combine_and,
    combine_max,
    combine_not,
    combine_or,
    combine_sum,
    combine_wsum,
    scatter_leaf,
    term_beliefs,
)
from .codec import RecordArrays, find_sorted


def _counted(arrays) -> LeafSlot:
    return (arrays, arrays.df) if arrays is not None and arrays.df else (None, 0)


def synonym_union(members: List[RecordArrays]) -> RecordArrays:
    """The members' postings as one record: every distinct
    ``(doc, position)`` pair once, in doc then position order.

    Two surface forms can normalise to one stored term, so a pair may
    arrive twice; the reference network's per-document position sets
    drop the repeat, and so does this.
    """
    docs = np.concatenate([np.repeat(m.doc_ids, m.tf) for m in members])
    positions = np.concatenate([m.positions for m in members])
    order = np.lexsort((positions, docs))
    docs, positions = docs[order], positions[order]
    first = np.ones(docs.size, dtype=bool)  # first pair of its document
    np.not_equal(docs[1:], docs[:-1], out=first[1:])
    keep = first.copy()
    keep[1:] |= positions[1:] != positions[:-1]
    docs, positions, first = docs[keep], positions[keep], first[keep]
    pos_starts = np.flatnonzero(first)
    tf = np.diff(pos_starts, append=docs.size)
    return RecordArrays(docs[pos_starts], tf, positions, pos_starts)


class FastInferenceNetwork(InferenceNetwork):
    """Array-kernel evaluation with reference-identical results.

    The provider must offer ``postings_arrays(term)`` — the same storage
    access and simulated charges as ``postings``, returning the columnar
    decode — and ``doc_id_space``, the collection's
    :class:`~repro.fastpath.beliefs.DocIdSpace`.
    """

    # -- leaves ---------------------------------------------------------------

    def _term_evidence(self, term: str) -> LeafSlot:
        return _counted(self._provider.postings_arrays(term))

    def _synonym_evidence(self, node: OpNode) -> LeafSlot:
        members = []
        for child in node.children:
            arrays = self._provider.postings_arrays(child.term)
            if arrays is not None and arrays.df:
                members.append(arrays)
        if not members:
            return None, 0
        merged = synonym_union(members)
        self._provider.charge_combine(merged.df)
        return _counted(merged)

    def _beliefs(self, evidence, df: int) -> Table:
        provider = self._provider
        space = provider.doc_id_space
        if evidence is None:
            # No local evidence: every document keeps the default belief.
            empty = np.empty(0, dtype=np.int64)
            return scatter_leaf(space, empty, empty, DEFAULT_BELIEF)
        n_docs = max(provider.doc_count, 1)
        avg_len = max(provider.average_doc_length, 1.0)
        slots = space.slots(evidence.doc_ids)
        beliefs = term_beliefs(
            evidence.tf, space.lengths[slots],
            inquery_idf(n_docs, df), avg_len, DEFAULT_BELIEF,
        )
        provider.charge_combine(evidence.df)
        return scatter_leaf(space, slots, beliefs, DEFAULT_BELIEF)

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
            common = common[find_sorted(arrays.doc_ids, common)[1]]
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
        return self._charged(tables, combine_wsum(tables, weights, left_sum(weights)))

    def _eval_and(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_and(tables))

    def _eval_or(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_or(tables))

    def _eval_not(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_not(tables))

    def _eval_max(self, node: OpNode, tables: List[Table]) -> Table:
        return self._charged(tables, combine_max(tables))
