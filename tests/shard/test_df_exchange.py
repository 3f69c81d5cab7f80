"""The df exchange over every leaf kind, on both evaluation paths.

The generated query sets exercise plain terms and ``#phrase`` only;
``#syn``, ``#odN`` and ``#uwN`` derive a virtual term's document
frequency from matches that are *local* on a shard, so they depend on
the two-phase protocol in :class:`~repro.inquery.network.InferenceNetwork`
just as much.  Also pinned here: the sharded per-query memo (one fetch
per term per query per shard, whatever leaf kinds mention it), and that
a failing wave leaves a runner clean.
"""

import pytest

from repro.core import materialize
from repro.core.metrics import cold_start
from repro.errors import QueryError, ReproError
from repro.fastpath import use_fastpath
from repro.inquery import RetrievalEngine
from repro.serve import QueryService
from repro.shard import ShardTaatRunner, materialize_sharded
from repro.synth.traffic import TimedRequest
from repro.synth.vocab import term_string

T, U, V, W = (term_string(rank) for rank in range(4))

LEAF_QUERIES = [
    f"#syn( {T} {V} )",
    f"#od3( {T} {U} )",
    f"#uw5( {U} {T} {V} )",
    f"#and( #od2( {T} {U} ) #syn( {V} {W} ) {U} )",
    f"#wsum( 2 #uw8( {T} {W} ) 1 #syn( {U} {V} ) )",
]

#: (query, per-shard record lookups, per-shard (user_ms, system_io_ms))
#: on a cold 2-shard build; the figures are commit 44639bb's, whose
#: sharded evaluator was a separate implementation of the same contract.
MEMO_PINS = [
    (f"#sum( {T} #syn( {T} {U} ) )", [2, 2],
     [(5.544951171875001, 52.3833984375), (5.798349609374998, 52.4390625)]),
    (f"#sum( {T} {T} )", [1, 1],
     [(3.6440390625, 52.3833984375), (3.7252109375, 52.4390625)]),
    (f"#sum( #phrase( {T} {U} ) {T} )", [2, 2],
     [(5.484951171875, 52.3833984375), (5.696349609375, 52.4390625)]),
]


@pytest.fixture(params=[True, False], ids=["fast", "reference"])
def fast(request):
    with use_fastpath(request.param):
        yield request.param


@pytest.mark.parametrize("n_shards", [2, 3])
def test_every_leaf_kind_ranks_as_on_one_disk(prepared, config, baseline, fast, n_shards):
    sharded = materialize_sharded(prepared, config, n_shards=n_shards)
    served = sharded.scheduler().run_wave(LEAF_QUERIES).results
    cold_start(baseline)
    flat = RetrievalEngine(baseline.index).run_batch(LEAF_QUERIES)
    assert all(result.ranking for result in flat)
    assert [r.ranking for r in served] == [r.ranking for r in flat]


def observe_memo(prepared, config, query):
    """Per-shard lookups and clock delta of one cold 2-shard query."""
    sharded = materialize_sharded(prepared, config, n_shards=2)
    for machine in sharded.shards:
        cold_start(machine)
    lookups = [machine.index.store.record_lookups for machine in sharded.shards]
    starts = [machine.clock.snapshot() for machine in sharded.shards]
    outcome = sharded.scheduler().run_wave([query])
    assert outcome.results[0].ranking
    deltas = [m.clock.since(s) for m, s in zip(sharded.shards, starts)]
    return (
        [m.index.store.record_lookups - n for m, n in zip(sharded.shards, lookups)],
        [outcome.per_shard_results[s][0].terms_looked_up for s in range(2)],
        [(d.user_ms, d.system_io_ms) for d in deltas],
    )


@pytest.mark.parametrize(
    "query, lookups, clocks", MEMO_PINS,
    ids=["term-in-syn", "term-twice", "term-in-phrase"],
)
def test_one_fetch_per_term_per_query_per_shard(
    prepared, config, fast, query, lookups, clocks
):
    fetched, reported, deltas = observe_memo(prepared, config, query)
    assert fetched == reported == lookups
    assert deltas == clocks


def test_failed_collect_leaves_the_runner_clean(prepared, config):
    machine = materialize_sharded(prepared, config, n_shards=2).shards[0]
    runner = ShardTaatRunner(machine)
    good = f"#sum( {T} {U} )"
    with pytest.raises(QueryError):
        runner.collect_many([good, "#bogus( x )"])
    assert runner.pending_failures == 0
    dfs, _deltas = runner.collect_many([good])  # not "score phase never ran"
    with pytest.raises(ReproError):
        runner.score_many([dfs[0] + [1]])       # df vector of the wrong shape
    buffer = machine.index.store.large.buffer
    assert not any(buffer.reserved(key) for key in list(buffer._entries))
    dfs, _deltas = runner.collect_many([good])
    results, _deltas = runner.score_many(dfs)
    assert results[0].ranking


@pytest.mark.parametrize("order", ["bad-first", "bad-last"])
def test_bad_wsum_does_not_wedge_a_sharded_service(prepared, config, order):
    bad, good = f"#wsum( 0 {T} 0 {U} )", f"#and( {T} {U} )"
    wave = [bad, good] if order == "bad-first" else [good, bad]
    sharded = QueryService(materialize_sharded(prepared, config, n_shards=2))
    flat = QueryService(materialize(prepared, config))
    for service in (sharded, flat):
        with pytest.raises(QueryError, match="#wsum weights must sum"):
            service.process([TimedRequest(text=text, arrival_ms=0.0) for text in wave])
    assert sharded.serve_one(good).ranking == flat.serve_one(good).ranking
    # Beneath the service's own parse, the scheduler and its runners
    # survive the same wave.
    scheduler = sharded.backend.scheduler()
    with pytest.raises(QueryError, match="#wsum weights must sum"):
        scheduler.run_wave(wave)
    assert scheduler.run_wave([good]).results[0].ranking == (
        flat.serve_one(good).ranking
    )
