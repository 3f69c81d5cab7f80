"""Bayesian inference network evaluation.

"INQUERY is a probabilistic information retrieval system based upon a
Bayesian inference network model.  ...  In INQUERY, document ranking is a
sorting problem, because the Bayesian method of combining belief assigns
a numeric value to each document."

A node evaluates to a *belief table*: a mapping from document id to
belief for documents where evidence was observed, plus a default belief
for all other documents.  Term beliefs use the INQUERY tf.idf form
(Turtle & Croft): ``0.4 + 0.6 * tf_w * idf_w`` with document-length
normalized ``tf_w`` and log-scaled ``idf_w``.  Operators combine child
tables per the probabilistic semantics of the network.

Evaluation is **term-at-a-time**: each term's complete record is read,
decoded, and merged into the accumulating belief tables before the next
term is touched — the access pattern whose storage cost the paper
measures.
"""

import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import QueryError, ReproError
from .postings import Posting
from .query import OpNode, QueryNode, TermNode

#: Belief assigned to a document with no evidence for a term.
DEFAULT_BELIEF = 0.4

#: A node's evaluation: per-document beliefs plus the default belief.
BeliefTable = Tuple[Dict[int, float], float]


def left_sum(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...``: one IEEE-754 addition per value, in order.

    Every float fold in belief arithmetic goes through this, never
    builtin ``sum``: since CPython 3.12 ``sum`` compensates float
    rounding, which the elementwise folds of the array kernels do not,
    so the two would disagree in the last bit of a belief.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def inquery_idf(n_docs: int, df: int) -> float:
    """INQUERY's scaled idf: ``log((N+0.5)/df) / log(N+1)``, floored at 0.

    Shared by the reference network, the document-at-a-time engine, and
    the fast-path kernels so every evaluation path computes term
    weights from one expression.
    """
    idf_w = math.log((n_docs + 0.5) / max(df, 1)) / math.log(n_docs + 1.0)
    return max(idf_w, 0.0)


class TermProvider:
    """What the network needs from the rest of the system.

    The engine implements this over the dictionary and the inverted
    file; tests implement it over in-memory fixtures.
    """

    @property
    def doc_count(self) -> int:
        raise NotImplementedError

    @property
    def average_doc_length(self) -> float:
        raise NotImplementedError

    def doc_length(self, doc_id: int) -> int:
        raise NotImplementedError

    def postings(self, term: str) -> Optional[List[Posting]]:
        """Decoded postings for a (raw, unstemmed) query term.

        Returns ``None`` for stop words and unindexed terms.
        """
        raise NotImplementedError

    def charge_combine(self, updates: int) -> None:
        """Charge engine CPU for ``updates`` belief-table operations."""
        return None


#: Operators the network scores as one *virtual term* built from plain
#: term children (the parser rejects anything else beneath them).
_VIRTUAL_TERM_OPS = ("phrase", "od", "uw", "syn")

#: One leaf's phase 1 outcome: its evidence (``None`` = nothing
#: observed) and the document frequency that evidence implies locally.
LeafSlot = Tuple[Optional[object], int]


def _is_leaf(node: QueryNode) -> bool:
    return isinstance(node, TermNode) or node.op in _VIRTUAL_TERM_OPS


def _window(node: OpNode) -> Tuple[bool, int]:
    """``(ordered, window)`` of a proximity operator."""
    if node.op == "phrase":
        return True, 1
    if node.op == "od":
        return True, max(node.window, 1)
    return False, max(node.window, len(node.children))


def _counted(postings: Optional[List[Posting]]) -> LeafSlot:
    return (postings, len(postings)) if postings else (None, 0)


class InferenceNetwork:
    """Evaluates a query tree into a belief table.

    A *leaf* is anything scored as a single term: a :class:`TermNode`,
    or a proximity/synonym operator whose virtual postings are
    materialized from its children.  Every leaf is evaluated in two
    steps — :meth:`_evidence` (the storage and window work, with the
    charges that work pays) and :meth:`_beliefs` ``(evidence, df)`` —
    because the df a leaf's evidence implies is collection-wide only on
    an unsharded index; on a shard it is local, and a local df changes
    the idf weight of every belief:

    * ``evaluate(tree)`` scores each leaf with its own evidence's df,
      leaf by leaf in one pass (the unsharded engine);
    * ``collect(tree)`` does the evidence step only, one
      :data:`LeafSlot` per leaf in pre-order; the shard coordinator
      sums the local dfs element-wise (each document lives on exactly
      one shard, so the sums are the unsharded dfs) and
      ``evaluate(tree, slots, dfs)`` scores the collected evidence
      with the sums, touching no storage — both phases see the same
      bytes even under an active fault plan.

    Every shard parses the same text with the same parser, so the slot
    sequences line up by construction.  Subclasses swap representations
    by overriding the leaf hooks; the protocol exists once, here.
    """

    def __init__(self, provider: TermProvider):
        self._provider = provider

    def evaluate(
        self,
        tree: QueryNode,
        slots: Optional[List[LeafSlot]] = None,
        dfs: Optional[List[int]] = None,
    ) -> BeliefTable:
        """Evaluate the tree bottom-up, term-at-a-time."""
        if slots is None:
            return self._eval(tree, None)
        if len(dfs) != len(slots):
            raise ReproError(
                f"df exchange shape mismatch: {len(slots)} leaf slots, "
                f"{len(dfs)} global dfs"
            )
        return self._eval(tree, iter(zip(slots, dfs)))

    def collect(self, node: QueryNode) -> List[LeafSlot]:
        """Phase 1 of the df exchange: leaf evidence only, in pre-order."""
        if _is_leaf(node):
            return [self._evidence(node)]
        return [slot for child in node.children for slot in self.collect(child)]

    def _eval(self, node: QueryNode, injected) -> BeliefTable:
        if _is_leaf(node):
            if injected is None:
                evidence, df = self._evidence(node)
            else:
                (evidence, _local_df), df = next(injected)
            return self._beliefs(evidence, df)
        handler = getattr(self, f"_eval_{node.op}", None)
        if handler is None:
            raise QueryError(f"unsupported operator #{node.op}")
        return handler(node, [self._eval(child, injected) for child in node.children])

    # -- leaves ---------------------------------------------------------------

    def _evidence(self, node: QueryNode) -> LeafSlot:
        """One leaf's storage/window work: its evidence and local df."""
        if isinstance(node, TermNode):
            return self._term_evidence(node.term)
        if node.op == "syn":
            return self._synonym_evidence(node)
        return self._proximity_evidence(node, *_window(node))

    def _beliefs(self, postings: Optional[List[Posting]], df: int) -> BeliefTable:
        """INQUERY term belief over a leaf's posting list.

        No local evidence: every local document keeps the default
        belief, exactly as it would in the global belief table.
        """
        if postings is None:
            return {}, DEFAULT_BELIEF
        provider = self._provider
        n_docs = max(provider.doc_count, 1)
        avg_len = max(provider.average_doc_length, 1.0)
        idf_w = inquery_idf(n_docs, df)
        scores: Dict[int, float] = {}
        for doc_id, positions in postings:
            tf = len(positions)
            tf_w = tf / (tf + 0.5 + 1.5 * provider.doc_length(doc_id) / avg_len)
            scores[doc_id] = DEFAULT_BELIEF + (1.0 - DEFAULT_BELIEF) * tf_w * idf_w
        provider.charge_combine(len(scores))
        return scores, DEFAULT_BELIEF

    def _term_evidence(self, term: str) -> LeafSlot:
        return _counted(self._provider.postings(term))

    def _synonym_evidence(self, node: OpNode) -> LeafSlot:
        """Synonym group: several surface terms scored as one term.

        The postings of the members are unioned (positions merged per
        document) and the result is scored like a single term whose
        document frequency is the union's size.
        """
        by_doc: Dict[int, set] = {}
        for child in node.children:
            postings = self._provider.postings(child.term)
            if not postings:
                continue
            for doc_id, positions in postings:
                by_doc.setdefault(doc_id, set()).update(positions)
        if not by_doc:
            return None, 0
        merged: List[Posting] = [
            (doc_id, tuple(sorted(positions)))
            for doc_id, positions in sorted(by_doc.items())
        ]
        self._provider.charge_combine(len(merged))
        return _counted(merged)

    def _proximity_evidence(self, node: OpNode, ordered: bool, window: int) -> LeafSlot:
        """A virtual term from co-occurrence within a window."""
        term_postings = []
        for child in node.children:
            postings = self._provider.postings(child.term)
            if postings is None or not postings:
                return None, 0  # a missing word kills the phrase
            term_postings.append(dict(postings))
        common = set(term_postings[0])
        for positions_by_doc in term_postings[1:]:
            common &= set(positions_by_doc)
        virtual: List[Posting] = []
        for doc_id in sorted(common):
            position_lists = [tp[doc_id] for tp in term_postings]
            count = _match_count(position_lists, ordered=ordered, window=window)
            if count > 0:
                virtual.append((doc_id, tuple(range(count))))
        self._provider.charge_combine(sum(len(tp) for tp in term_postings))
        return _counted(virtual)

    # -- combination operators ----------------------------------------------------

    def _combine(self, tables: List[BeliefTable], combine_fn) -> BeliefTable:
        docs: set = set()
        for scores, _default in tables:
            docs.update(scores)
        self._provider.charge_combine(len(docs) * len(tables))
        scores = {
            doc: combine_fn([s.get(doc, d) for s, d in tables]) for doc in docs
        }
        default = combine_fn([d for _s, d in tables])
        return scores, default

    def _eval_sum(self, node: OpNode, tables: List[BeliefTable]) -> BeliefTable:
        return self._combine(tables, lambda beliefs: left_sum(beliefs) / len(beliefs))

    def _eval_wsum(self, node: OpNode, tables: List[BeliefTable]) -> BeliefTable:
        weights = node.weights
        total = left_sum(weights)  # positive: the parser rejects anything else

        def weighted(beliefs: List[float]) -> float:
            return left_sum(w * b for w, b in zip(weights, beliefs)) / total

        return self._combine(tables, weighted)

    def _eval_and(self, node: OpNode, tables: List[BeliefTable]) -> BeliefTable:
        def product(beliefs: List[float]) -> float:
            out = 1.0
            for b in beliefs:
                out *= b
            return out

        return self._combine(tables, product)

    def _eval_or(self, node: OpNode, tables: List[BeliefTable]) -> BeliefTable:
        def noisy_or(beliefs: List[float]) -> float:
            out = 1.0
            for b in beliefs:
                out *= 1.0 - b
            return 1.0 - out

        return self._combine(tables, noisy_or)

    def _eval_not(self, node: OpNode, tables: List[BeliefTable]) -> BeliefTable:
        return self._combine(tables, lambda beliefs: 1.0 - beliefs[0])

    def _eval_max(self, node: OpNode, tables: List[BeliefTable]) -> BeliefTable:
        return self._combine(tables, max)


def _match_count(position_lists: List[Tuple[int, ...]], ordered: bool, window: int) -> int:
    """Co-occurrence matches of several terms within one document.

    Ordered (phrase): positions must be consecutive, in child order.
    Unordered (#uwN): an occurrence of the first term counts if every
    other term occurs within ``window`` positions of it.
    """
    if ordered and window <= 1:
        # Exact phrase: strictly adjacent positions, in order.
        first, rest = set(position_lists[0]), position_lists[1:]
        count = 0
        for position in sorted(first):
            if all((position + offset + 1) in set(positions)
                   for offset, positions in enumerate(rest)):
                count += 1
        return count
    if ordered:
        # Ordered window (#odN): increasing positions, each gap <= window.
        rest = [sorted(positions) for positions in position_lists[1:]]
        count = 0
        for position in sorted(position_lists[0]):
            current = position
            ok = True
            for positions in rest:
                following = next(
                    (p for p in positions if current < p <= current + window), None
                )
                if following is None:
                    ok = False
                    break
                current = following
            if ok:
                count += 1
        return count
    count = 0
    others = [set(positions) for positions in position_lists[1:]]
    for position in position_lists[0]:
        if all(
            any(abs(position - p) <= window for p in positions)
            for positions in others
        ):
            count += 1
    return count
