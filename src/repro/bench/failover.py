"""Failover gate: replication must be observationally invisible.

The replication layer's whole contract is negative — with ``R`` mirrors
per shard, no single replica failure may change anything a client can
observe.  For each collection profile this gate checks, on simulated
time:

* **kill matrix** — at every ``N ∈ {2, 4} × R ∈ {1, 2}``, killing each
  ``(shard, replica)`` in turn with a dead-disk fault plan leaves every
  TAAT ranking bit-identical to the cold single-disk reference, with
  ``completeness == 1.0`` and zero degraded queries (the DAAT engine is
  spot-checked on its flat query subset);
* **R=0 control** — the same kill without replication degrades a
  deterministic, nonzero number of queries (PR 3/4 semantics), which is
  the baseline replication is measured against;
* **re-replication** — a lost mirror copied live from its survivor is
  byte-identical platter-for-platter, the copy's scan is charged to the
  source's simulated clock, and the healed group serves with no further
  failovers;
* **determinism** — two fresh builds through the same kill, failover,
  and re-replication produce byte-identical traces (served-by maps,
  failover events, replica busy ledgers);
* **mid-traffic split** — a live 2 -> 4 rebalance under the serving
  layer: every request before and after the cutover matches the
  single-disk reference, the child platters are byte-identical to a
  stop-the-world N=4 build, the result cache is invalidated exactly
  once, and a pre-split cached query is re-evaluated (a "miss") on its
  first post-split occurrence.

Everything is simulated and seeded, so the whole report is a pure
function of the code: ``--check`` gates every cell by exact equality
against the committed ``BENCH_failover.json``.  Run it with
``python -m repro.bench failover`` (see :mod:`repro.bench.gate` for the
flags and exit status shared by every gate).
"""

import json
from typing import Dict, List

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.prepared import materialize
from ..faults.plan import FaultPlan
from ..inquery.daat import daat_queries
from ..serve import QueryService
from ..shard import measure_sharded_run
from ..synth.traffic import TimedRequest
from .gate import Gate, Option
from .reference import cold_reference

DEFAULT_CONFIG = "mneme-cache"
#: Queries per profile (keeps the 30-run kill matrix affordable).
DEFAULT_QUERIES = 8
SHARD_COUNTS = (2, 4)
REPLICA_COUNTS = (1, 2)


def _reset_victim(sharded, shard_id: int, replica_id: int) -> None:
    """Detach the kill and revive the victim so the build can be reused."""
    sharded.fault_shard(shard_id, None, replica_id=replica_id)
    sharded.mark_up(shard_id, replica_id=replica_id)


def _trace(metrics) -> dict:
    """The deterministic failover trace of one run, JSON-comparable."""
    return {
        "failovers": metrics.failovers,
        "served_by": [
            {str(k): v for k, v in round.items()} for round in metrics.served_by
        ],
        "replica_busy_ms": {
            f"{s}/{r}": round_ms
            for (s, r), round_ms in sorted(metrics.replica_busy_ms.items())
        },
        "replicas_down": [list(pair) for pair in metrics.replicas_down],
        "rankings": [
            [[doc, round(belief, 12)] for doc, belief in r.ranking]
            for r in metrics.results
        ],
    }


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    n_queries: int = DEFAULT_QUERIES,
) -> dict:
    """The full replication contract for one collection profile."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared = workload.prepared
    query_set = workload.query_sets[0]
    queries = query_set.queries[:n_queries]
    daat_pool = daat_queries(query_set.queries)[: max(2, n_queries // 2)]
    config = config_by_name(config_name)
    reference, _ = cold_reference(prepared, config, queries)
    daat_reference, _ = cold_reference(
        prepared, config, daat_pool, engine="daat"
    )

    def build(n_shards: int, replicas: int):
        return materialize(
            prepared, config, shards=n_shards, replicas=replicas
        )

    # -- R=0 control: the same kill without replication degrades ---------
    def degraded_run():
        sharded = build(2, 0)
        sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"))
        metrics = measure_sharded_run(sharded, queries)
        return metrics.degraded_queries, [r.ranking for r in metrics.results]

    r0_degraded, r0_rankings = degraded_run()
    r0_again = degraded_run()
    if r0_degraded == 0:
        violations.append(
            "control: the R=0 dead-disk run degraded nothing — the kill "
            "is not reaching the disk, so the matrix proves nothing"
        )
    if (r0_degraded, r0_rankings) != r0_again:
        violations.append("control: R=0 degradation is not deterministic")

    # -- the kill matrix -------------------------------------------------
    kill_matrix: Dict[str, dict] = {}
    for n_shards in SHARD_COUNTS:
        for replicas in REPLICA_COUNTS:
            sharded = build(n_shards, replicas)
            victims = clean = failovers = 0
            for shard_id in range(n_shards):
                for replica_id in range(replicas + 1):
                    victims += 1
                    sharded.fault_shard(
                        shard_id,
                        FaultPlan.dead_disk(label=f"s{shard_id}/r{replica_id}"),
                        replica_id=replica_id,
                    )
                    metrics = measure_sharded_run(sharded, queries)
                    failovers += len(metrics.failovers)
                    ok = (
                        metrics.degraded_queries == 0
                        and all(r.completeness == 1.0 for r in metrics.results)
                        and [r.ranking for r in metrics.results]
                        == [reference[text] for text in queries]
                    )
                    clean += ok
                    if not ok:
                        violations.append(
                            f"N={n_shards} R={replicas}: killing shard "
                            f"{shard_id} replica {replica_id} was observable "
                            f"({metrics.degraded_queries} degraded)"
                        )
                    _reset_victim(sharded, shard_id, replica_id)
            kill_matrix[f"N{n_shards}xR{replicas}"] = {
                "victims": victims,
                "clean": clean,
                "failovers": failovers,
            }

    # DAAT spot check: dead primary, flat queries, same contract.
    sharded = build(2, 1)
    sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"))
    daat_metrics = measure_sharded_run(sharded, daat_pool, engine="daat")
    daat_ok = (
        daat_metrics.degraded_queries == 0
        and [r.ranking for r in daat_metrics.results]
        == [daat_reference[text] for text in daat_pool]
    )
    if not daat_ok:
        violations.append("daat: failover changed a flat-query ranking")

    # -- re-replication ---------------------------------------------------
    def heal_run():
        sharded = build(2, 1)
        sharded.fault_shard(0, FaultPlan.dead_disk(label="s0/r0"))
        killed = measure_sharded_run(sharded, queries)
        healed = sharded.rereplicate(0, 0)
        identical = (
            sharded.replica(0, 0).fs.disk._blocks
            == sharded.replica(0, 1).fs.disk._blocks
        )
        after = measure_sharded_run(sharded, queries)
        return killed, healed, identical, after

    killed, healed, identical, after = heal_run()
    if not identical:
        violations.append("heal: copied mirror is not byte-identical")
    if healed["source_scan_ms"] <= 0.0:
        violations.append("heal: the copy charged nothing to the source clock")
    if after.failovers or after.degraded_queries:
        violations.append("heal: the healed group still fails over")
    rereplication = {
        "blocks_scanned": healed["blocks_scanned"],
        "source_replica": healed["source_replica"],
        "byte_identical": identical,
        "post_heal_failovers": len(after.failovers),
    }

    # -- determinism: the full trace, twice, from fresh builds ------------
    killed_b, healed_b, identical_b, after_b = heal_run()
    trace_a = json.dumps(
        [_trace(killed), healed, identical, _trace(after)], sort_keys=True
    )
    trace_b = json.dumps(
        [_trace(killed_b), healed_b, identical_b, _trace(after_b)],
        sort_keys=True,
    )
    deterministic = trace_a == trace_b
    if not deterministic:
        violations.append(
            "determinism: two identical kill/failover/heal runs produced "
            "different traces"
        )

    # -- mid-traffic 2 -> 4 split under the serving layer -----------------
    service = QueryService(build(2, 1), engine="taat", workers=2)
    half = max(1, len(queries) // 2)
    pre = service.process(
        [TimedRequest(text=t, arrival_ms=0.0, seq=i)
         for i, t in enumerate(queries[:half])],
        name="pre-split",
    )
    report = service.rebalance(factor=2)
    # First post-split occurrence of an already-cached text must be a
    # genuine miss: the epoch bump forbids serving pre-split entries.
    replay = queries[0]
    post_texts = [replay] + queries[half:]
    post = service.process(
        [TimedRequest(text=t, arrival_ms=0.0, seq=i)
         for i, t in enumerate(post_texts)],
        name="post-split",
    )
    rows_ok = all(
        row.result.ranking == reference[row.text]
        for run in (pre, post) for row in run.served
    )
    if not rows_ok:
        violations.append("split: a served ranking diverged across the cutover")
    outcomes = {row.text: row.outcome for row in post.served}
    post_split_miss = outcomes.get(replay) == "miss"
    if not post_split_miss:
        violations.append(
            f"split: pre-split cache entry for {replay!r} leaked through "
            f"the cutover (outcome {outcomes.get(replay)!r})"
        )
    invalidations = service.cache.stats.invalidations
    if invalidations != 1:
        violations.append(
            f"split: expected exactly 1 cache invalidation, saw {invalidations}"
        )
    fresh = materialize(prepared, config, shards=4)
    platters_match = all(
        service.backend.replica(s, 0).fs.disk._blocks
        == fresh.shards[s].fs.disk._blocks
        for s in range(4)
    )
    if not platters_match:
        violations.append(
            "split: a child platter differs from the stop-the-world N=4 build"
        )
    split_cell = {
        "records_streamed": report.records_streamed,
        "postings_moved": report.postings_moved,
        "mirrors_verified": report.mirrors_verified,
        "epoch": report.epoch,
        "platters_match_fresh": platters_match,
        "cache_invalidations": invalidations,
        "post_split_miss": post_split_miss,
        "rows_identical": rows_ok,
    }

    return {
        "config": config_name,
        "queries": len(queries),
        "daat_queries": len(daat_pool),
        "r0_control": {
            "degraded_queries": r0_degraded,
            "deterministic": (r0_degraded, r0_rankings) == r0_again,
        },
        "kill_matrix": kill_matrix,
        "daat_failover_clean": daat_ok,
        "rereplication": rereplication,
        "deterministic": deterministic,
        "split": split_cell,
        "violations": violations,
        "ok": not violations,
    }


def print_cell(name: str, cell: dict) -> None:
    print(f"{name} ({cell['config']}, {cell['queries']} queries):")
    for grid, row in cell["kill_matrix"].items():
        print(
            f"  {grid}: {row['clean']}/{row['victims']} kills invisible, "
            f"{row['failovers']} failovers absorbed"
        )
    control = cell["r0_control"]
    print(
        f"  R=0 control: {control['degraded_queries']} degraded "
        f"(deterministic: {control['deterministic']})"
    )
    heal = cell["rereplication"]
    print(
        f"  re-replication: {heal['blocks_scanned']} blocks from "
        f"replica {heal['source_replica']}, byte-identical: "
        f"{heal['byte_identical']}"
    )
    split = cell["split"]
    print(
        f"  split 2->4: {split['records_streamed']} records streamed, "
        f"platters match fresh build: {split['platters_match_fresh']}, "
        f"cache invalidations: {split['cache_invalidations']}"
    )
    print(f"  trace deterministic: {cell['deterministic']}")
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="failover",
    description=(
        "Replicated serving on simulated time: every single-replica "
        "kill across N ∈ {2,4} × R ∈ {1,2} leaves rankings "
        "bit-identical to the cold single-disk reference with zero "
        "degraded queries (while the R=0 control degrades "
        "deterministically), live re-replication rebuilds "
        "byte-identical platters on the source's clock, failover "
        "traces are byte-identical across same-seed runs, and a "
        "mid-traffic 2 -> 4 split is observationally invisible with "
        "exactly one cache-epoch invalidation."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--queries", "n_queries", DEFAULT_QUERIES,
               "queries per profile run"),
    ),
)
