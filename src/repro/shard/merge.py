"""Merging per-shard rankings into one collection-wide result.

Document partitioning makes the merge lossless: the shards' document
sets are disjoint, every shard scores its documents with *global*
statistics (see :mod:`.taat`), and each shard returns its local top-k
under the engines' shared ordering key ``(-belief, doc id)``.  Any
document in the global top-k therefore appears in its home shard's local
top-k (it outranks at least as many documents globally as locally), so
selecting k from the concatenated candidates reproduces the single-disk
engine's ranking bit for bit — ties included, because the doc-id
tie-break makes the key a total order.

Degradation composes additively.  A shard that served the query but hit
unreadable records contributes its own ``terms_attempted``/
``terms_failed`` counts; a shard that was marked down contributes the
stored terms it *would* have been asked for (counted from its in-memory
dictionary — the coordinator always knows what evidence went missing,
even when the shard's disk cannot say).  The merged result is degraded
whenever any evidence was lost, and its ``completeness`` is the fraction
of attempted stored-term reads that produced evidence, collection-wide.
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..inquery import QueryResult
from ..inquery.engine import DEFAULT_TOP_K


@dataclass
class ShardOutcome:
    """One shard's contribution to one query.

    ``result`` is ``None`` for a shard that did not serve the query (it
    was marked down); ``attempted_down`` then counts the distinct stored
    terms of the query that shard holds, i.e. the reads that were never
    issued and must be accounted as failed.

    ``replica_id`` records which replica of the shard produced
    ``result`` (0 is the primary); it stays 0 on unreplicated systems.
    """

    shard_id: int
    result: Optional[QueryResult] = None
    attempted_down: int = 0
    replica_id: int = 0


@dataclass
class ShardedQueryResult(QueryResult):
    """A merged ranking plus the per-shard provenance of the evidence."""

    #: Documents each shard placed in the merged top-k.
    shard_contributions: Dict[int, int] = field(default_factory=dict)
    #: Shards that did not serve the query at all.
    shards_down: Tuple[int, ...] = ()
    #: Which replica served each shard's slice (shard id -> replica id).
    served_by: Dict[int, int] = field(default_factory=dict)


def merge_results(
    text: str,
    outcomes: List[ShardOutcome],
    top_k: int = DEFAULT_TOP_K,
) -> ShardedQueryResult:
    """Merge per-shard query results into the collection-wide ranking.

    Each merged top-k entry is attributed, for the contribution
    breakdown, to the shard whose ranking carried it.
    """
    candidates: List[Tuple[int, float]] = []
    home: Dict[int, int] = {}
    looked_up = 0
    attempted = 0
    failed = 0
    down: List[int] = []
    served_by: Dict[int, int] = {}
    for outcome in outcomes:
        if outcome.result is None:
            down.append(outcome.shard_id)
            attempted += outcome.attempted_down
            failed += outcome.attempted_down
            continue
        served_by[outcome.shard_id] = outcome.replica_id
        candidates.extend(outcome.result.ranking)
        for doc_id, _belief in outcome.result.ranking:
            home[doc_id] = outcome.shard_id
        looked_up += outcome.result.terms_looked_up
        attempted += outcome.result.terms_attempted
        failed += outcome.result.terms_failed
    ranking = heapq.nsmallest(
        top_k, candidates, key=lambda item: (-item[1], item[0])
    )
    contributions: Dict[int, int] = {}
    for doc_id, _belief in ranking:
        contributions[home[doc_id]] = contributions.get(home[doc_id], 0) + 1
    return ShardedQueryResult(
        query=text,
        ranking=ranking,
        terms_looked_up=looked_up,
        degraded=failed > 0,
        terms_attempted=attempted,
        terms_failed=failed,
        shard_contributions=contributions,
        shards_down=tuple(down),
        served_by=served_by,
    )
