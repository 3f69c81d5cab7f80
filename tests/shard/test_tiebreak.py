"""Tie-breaking is one total order everywhere.

Every ranking surface in the system — the term-at-a-time engine, the
document-at-a-time engine, the vectorized fast-path selection, and the
sharded merge — orders by ``(-belief, doc id)``.  Hypothesis drives
score tables with deliberately heavy belief collisions through all four
and demands the identical ranked list, because a single surface breaking
ties differently is exactly the kind of bug the bit-identity gates exist
to catch.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.fastpath import use_fastpath
from repro.shard import ShardOutcome, merge_results
from repro.inquery import QueryResult

# Few distinct belief values over many documents: collisions guaranteed.
BELIEFS = st.sampled_from([0.4, 0.4, 0.55, 0.55, 0.55, 0.7, 0.9])
SCORE_TABLES = st.dictionaries(
    keys=st.integers(min_value=1, max_value=300),
    values=BELIEFS,
    min_size=1,
    max_size=120,
)


def reference_order(scores, k):
    """The documented contract, written as the full sort."""
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


@given(scores=SCORE_TABLES, k=st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_heap_selection_matches_total_order(scores, k):
    picked = heapq.nsmallest(k, scores.items(), key=lambda i: (-i[1], i[0]))
    assert picked == reference_order(scores, k)


@given(scores=SCORE_TABLES, k=st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_fastpath_selection_matches_total_order(scores, k):
    import numpy as np

    from repro.fastpath.beliefs import ArrayBeliefs
    from repro.fastpath.topk import rank_arrays

    doc_ids = np.array(sorted(scores), dtype=np.int64)
    beliefs = np.array([scores[d] for d in sorted(scores)], dtype=np.float64)
    assert rank_arrays(ArrayBeliefs(doc_ids, beliefs), k) == (
        reference_order(scores, k)
    )


@given(
    scores=SCORE_TABLES,
    k=st.integers(min_value=1, max_value=60),
    n_shards=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_sharded_merge_matches_total_order(scores, k, n_shards):
    """Partition any score table, rank per shard, merge: same list."""
    per_shard = [{} for _ in range(n_shards)]
    for doc_id, belief in scores.items():
        per_shard[doc_id % n_shards][doc_id] = belief
    outcomes = [
        ShardOutcome(
            shard_id,
            QueryResult(query="q", ranking=reference_order(local, k)),
        )
        for shard_id, local in enumerate(per_shard)
    ]
    merged = merge_results("q", outcomes, top_k=k)
    assert merged.ranking == reference_order(scores, k)


def test_engines_break_real_ties_identically(baseline, config, prepared):
    """End-to-end: a flat query on the real index, all engines agree.

    Synthetic collections contain many same-length documents with the
    same term frequency for a common term, so single-term queries
    produce genuine belief ties in the score table.
    """
    from repro.core.metrics import cold_start
    from repro.inquery import RetrievalEngine
    from repro.inquery.daat import DocumentAtATimeEngine
    from repro.shard import materialize_sharded, measure_sharded_run
    from repro.synth.vocab import term_string

    # the collection's most common stored term: maximal tie pressure
    term = term_string(min(prepared.term_id_of_rank))
    query = f"#sum( {term} )"

    with use_fastpath(False):
        cold_start(baseline)
        taat = RetrievalEngine(baseline.index).run_query(query)
        cold_start(baseline)
        daat = DocumentAtATimeEngine(baseline.index).run_query(query)
    assert taat.ranking == daat.ranking
    with use_fastpath(True):
        cold_start(baseline)
        fast = RetrievalEngine(baseline.index).run_query(query)
    assert fast.ranking == taat.ranking

    sharded = materialize_sharded(prepared, config, n_shards=3)
    metrics = measure_sharded_run(sharded, [query])
    assert metrics.results[0].ranking == taat.ranking
    # ties exist and are broken by doc id within equal beliefs
    beliefs = [b for _d, b in taat.ranking]
    assert len(set(beliefs)) < len(beliefs), "expected belief ties in top-k"
    for (d1, b1), (d2, b2) in zip(taat.ranking, taat.ranking[1:]):
        assert b1 > b2 or (b1 == b2 and d1 < d2)
