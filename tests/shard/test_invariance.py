"""Observational identity: sharded rankings == single-disk rankings.

The whole point of the global-statistics exchange and the lossless
merge: for every query shape the paper's query sets use (natural,
boolean operator trees, phrases, weighted sums), at every shard count,
with either partitioner, the merged ranking must be *bit-identical* —
same documents, same belief floats, same order — to the unsharded
engine's.
"""

import pytest

from repro.core.metrics import cold_start
from repro.inquery.daat import DocumentAtATimeEngine, daat_queries
from repro.shard import materialize_sharded, measure_sharded_run


@pytest.mark.parametrize("scheme", ["hash", "range"])
@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_taat_rankings_bit_identical(
    prepared, config, query_sets, reference_rankings, scheme, n_shards
):
    sharded = materialize_sharded(
        prepared, config, n_shards=n_shards, partitioner=scheme
    )
    for query_set in query_sets:
        metrics = measure_sharded_run(
            sharded, query_set.queries, query_set_name=query_set.name
        )
        assert [r.ranking for r in metrics.results] == (
            reference_rankings[query_set.name]
        ), f"{scheme}/N={n_shards}: {query_set.name} diverged"


@pytest.mark.parametrize("n_shards", [2, 4])
def test_daat_rankings_bit_identical(
    baseline, prepared, config, query_sets, n_shards
):
    sharded = materialize_sharded(prepared, config, n_shards=n_shards)
    for query_set in query_sets:
        flat = daat_queries(query_set.queries)
        if not flat:
            continue
        cold_start(baseline)
        engine = DocumentAtATimeEngine(baseline.index, top_k=50)
        reference = [r.ranking for r in engine.run_batch(flat)]
        metrics = measure_sharded_run(
            sharded, flat, query_set_name=query_set.name, engine="daat"
        )
        assert [r.ranking for r in metrics.results] == reference


def test_rankings_stable_across_repeated_runs(prepared, config, query_sets):
    """A rerun on the same system reproduces results and accounting exactly."""
    sharded = materialize_sharded(prepared, config, n_shards=3)
    query_set = query_sets[1]  # boolean: the deepest trees
    first = measure_sharded_run(
        sharded, query_set.queries, query_set_name=query_set.name
    )
    second = measure_sharded_run(
        sharded, query_set.queries, query_set_name=query_set.name
    )
    assert [r.ranking for r in first.results] == [
        r.ranking for r in second.results
    ]
    assert first.wall_s == second.wall_s
    assert first.wall_s_sum == second.wall_s_sum
