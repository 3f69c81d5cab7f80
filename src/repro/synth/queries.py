"""Synthetic query sets.

Two facts about real query streams drive the paper's results, and both
are modelled explicitly:

* **Term selection is biased toward longer inverted lists** (Figure 2:
  "the small inverted lists are accessed rarely").  Terms are drawn with
  probability proportional to ``ctf ** bias_alpha`` over terms above a
  frequency floor.
* **Terms repeat from query to query** ("there is significant repetition
  of the terms used from query to query", from iterative refinement and
  specialized collections).  With probability ``reuse_rate`` a term is
  redrawn from the pool of terms used by earlier queries.  This is what
  makes record caching pay off — and why the paper calls out studies
  that assume a uniform term distribution.

Query styles mirror the paper's seven sets: boolean operator trees
(CACM sets 1-2), natural-language ``#sum`` with phrases (CACM set 3),
plain and weight-supplemented sets (Legal 1-2), and long TREC-topic-like
queries (TIPSTER).
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set

import numpy as np

from ..errors import ConfigError
from .collection import SyntheticCollection
from .vocab import term_string


@dataclass(frozen=True)
class QueryProfile:
    """Shape parameters of one query set."""

    name: str
    style: str              #: "natural" | "boolean" | "phrase" | "weighted"
    n_queries: int = 50
    mean_terms: int = 6
    reuse_rate: float = 0.35
    bias_alpha: float = 0.9  #: term draw weight ∝ ctf ** alpha
    min_ctf: int = 3         #: frequency floor for query terms
    seed: int = 7


@dataclass
class QuerySet:
    """Generated queries plus the term ranks each uses."""

    name: str
    queries: List[str]
    term_ranks: List[List[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)


_STYLES = ("natural", "boolean", "phrase", "weighted")


def generate_query_set(collection: SyntheticCollection, profile: QueryProfile) -> QuerySet:
    """Draw a query set against a collection's observed term statistics."""
    if profile.style not in _STYLES:
        raise ConfigError(f"unknown query style {profile.style!r}")
    if profile.n_queries < 1:
        raise ConfigError("query set needs at least one query")
    if not 0.0 <= profile.reuse_rate < 1.0:
        raise ConfigError("reuse_rate must be in [0, 1)")
    counts = collection.term_counts()
    eligible = np.nonzero(counts >= profile.min_ctf)[0]
    if len(eligible) == 0:
        raise ConfigError("no terms pass the query-term frequency floor")
    weights = counts[eligible].astype(np.float64) ** profile.bias_alpha
    weights /= weights.sum()
    cumulative = np.cumsum(weights)
    rng = np.random.default_rng(profile.seed)

    used_pool: List[int] = []
    queries: List[str] = []
    ranks_per_query: List[List[int]] = []
    for _ in range(profile.n_queries):
        n_terms = max(2, int(rng.poisson(profile.mean_terms)))
        ranks = _draw_terms(rng, eligible, cumulative, used_pool, profile.reuse_rate, n_terms)
        used_pool.extend(ranks)
        queries.append(_render(rng, profile.style, ranks, collection))
        ranks_per_query.append(ranks)
    return QuerySet(name=profile.name, queries=queries, term_ranks=ranks_per_query)


def _draw_terms(
    rng: np.random.Generator,
    eligible: np.ndarray,
    cumulative: np.ndarray,
    used_pool: Sequence[int],
    reuse_rate: float,
    n_terms: int,
) -> List[int]:
    ranks: List[int] = []
    for _ in range(n_terms):
        if used_pool and rng.random() < reuse_rate:
            ranks.append(int(used_pool[rng.integers(len(used_pool))]))
        else:
            ranks.append(int(eligible[_weighted_choice(rng, cumulative)]))
    return ranks


def _weighted_choice(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    """Draw an index by inverse CDF over ``cumsum(weights)``, computed once
    per query set."""
    return int(np.searchsorted(cumulative, rng.random(), side="left"))


def _render(
    rng: np.random.Generator,
    style: str,
    ranks: List[int],
    collection: SyntheticCollection,
) -> str:
    terms = [term_string(rank) for rank in ranks]
    if style == "natural":
        return "#sum( " + " ".join(terms) + " )"
    if style == "weighted":
        weights = rng.integers(1, 4, size=len(terms))
        inner = " ".join(f"{w} {t}" for w, t in zip(weights, terms))
        return f"#wsum( {inner} )"
    if style == "boolean":
        half = max(1, len(terms) // 2)
        left = "#and( " + " ".join(terms[:half]) + " )"
        right = "#or( " + " ".join(terms[half:]) + " )" if terms[half:] else ""
        return f"#sum( {left} {right} )".replace("  ", " ")
    # phrase: a #sum over terms plus one real bigram from the collection,
    # so the phrase operator actually matches documents.
    bigram = _sample_bigram(rng, collection)
    parts = terms[:-1] if len(terms) > 2 else terms
    return "#sum( " + " ".join(parts) + f" #phrase( {bigram[0]} {bigram[1]} ) )"


def _sample_bigram(rng: np.random.Generator, collection: SyntheticCollection) -> "tuple[str, str]":
    for _ in range(32):
        doc = collection.doc_tokens[rng.integers(len(collection.doc_tokens))]
        if len(doc) >= 2:
            start = rng.integers(len(doc) - 1)
            return term_string(int(doc[start])), term_string(int(doc[start + 1]))
    raise ConfigError("collection has no document with two tokens")


def relevance_from_postings(
    term_ranks: Sequence[Sequence[int]],
    docs_of_rank: Callable[[int], Sequence[int]],
    max_relevant: int = 50,
) -> Dict[int, Set[int]]:
    """Synthesize a relevance file: documents matching most query terms.

    "A relevance file lists the documents that should have been
    retrieved for each query."  With no human judgments for synthetic
    text, the documents containing at least half of a query's distinct
    terms stand in (capped, favouring higher overlap).
    """
    relevance: Dict[int, Set[int]] = {}
    for query_index, ranks in enumerate(term_ranks):
        distinct = list(dict.fromkeys(ranks))
        overlap: Dict[int, int] = {}
        for rank in distinct:
            for doc in docs_of_rank(rank):
                overlap[doc] = overlap.get(doc, 0) + 1
        threshold = max(1, (len(distinct) + 1) // 2)
        candidates = sorted(
            (doc for doc, hits in overlap.items() if hits >= threshold),
            key=lambda doc: (-overlap[doc], doc),
        )
        if candidates:
            relevance[query_index] = set(candidates[:max_relevant])
    return relevance
