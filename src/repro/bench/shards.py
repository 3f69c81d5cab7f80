"""Shard scaling benchmark and invariance gate.

For each paper collection this benchmark builds the document-partitioned
system at several shard counts and checks the whole sharding contract in
one pass:

* **invariance** — for every query set (term-at-a-time, all query
  shapes) and its flat document-at-a-time subset, the sharded rankings
  must be *bit-identical* to the single-disk engine's, at every shard
  count and for both partitioners; the flat subset is additionally run
  with dynamic pruning (``prune="auto"``) on every shard, which must
  reproduce the same single-disk rankings while actually skipping
  documents;
* **degenerate build** — at N=1 the shard's platter must be
  byte-for-byte the unsharded build's platter (same blocks, same bytes):
  partitioning composes with the storage layer without perturbing it;
* **scaling** — the critical-path simulated wall clock (slowest shard
  per query phase + coordinator exchange/merge) should shrink as shards
  are added; the report records per-N critical and summed clocks, the
  speedup over one disk, parallel efficiency, scheduler queue depth, and
  partition skew.  ``--min-speedup`` gates the largest shard count;
* **fault composition** — with shard 0's disk dead
  (:meth:`~repro.faults.plan.FaultPlan.dead_disk`), every query must
  complete degraded (``completeness < 1``) without raising, and a
  same-plan rerun must be bit-identical.

Everything is on simulated time, so ``--check`` gates every cell by
exact equality against the committed ``BENCH_shards.json``.  Run it with
``python -m repro.bench shards [--shards 1 2 4]`` (see
:mod:`repro.bench.gate` for the flags and exit status shared by every
gate).
"""

from typing import Dict, List

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.metrics import cold_start, measure_run
from ..core.prepared import materialize
from ..faults.plan import FaultPlan
from ..inquery.daat import DocumentAtATimeEngine, daat_queries
from ..inquery.engine import DEFAULT_TOP_K
from ..shard import measure_sharded_run
from .gate import Gate, Option

DEFAULT_CONFIG = "mneme-cache"
DEFAULT_SHARDS = (1, 2, 4)
DEFAULT_MIN_SPEEDUP = 1.5
PARTITIONERS = ("hash", "range")


def _rankings(results) -> List[list]:
    return [r.ranking for r in results]


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    shard_counts=DEFAULT_SHARDS,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> dict:
    """The full sharding contract for one collection profile."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared, query_sets = workload.prepared, workload.query_sets
    config = config_by_name(config_name)

    # -- single-disk baseline: the rankings every shard count must hit ----
    baseline = materialize(prepared, config)
    taat_ref: Dict[str, List[list]] = {}
    daat_ref: Dict[str, List[list]] = {}
    baseline_wall = 0.0
    for query_set in query_sets:
        metrics = measure_run(
            baseline, query_set.queries, query_set_name=query_set.name
        )
        taat_ref[query_set.name] = _rankings(metrics.results)
        baseline_wall += metrics.wall_s
    for query_set in query_sets:
        flat = daat_queries(query_set.queries)
        if not flat:
            continue
        cold_start(baseline)
        engine = DocumentAtATimeEngine(baseline.index, top_k=DEFAULT_TOP_K)
        daat_ref[query_set.name] = _rankings(engine.run_batch(flat))

    cell: dict = {
        "config": config_name,
        "partitioners": list(PARTITIONERS),
        "baseline_wall_s": round(baseline_wall, 4),
        "shards": {},
    }

    # -- every shard count, both partitioners ------------------------------
    wall_by_n: Dict[int, float] = {}
    for n_shards in shard_counts:
        row: dict = {"partitioner": {}}
        for scheme in PARTITIONERS:
            sharded = materialize(
                prepared, config, shards=n_shards, partitioner=scheme
            )
            if n_shards == 1:
                identical_platter = (
                    sharded.shards[0].fs.disk._blocks
                    == baseline.fs.disk._blocks
                )
                row.setdefault("n1_platter_identical", identical_platter)
                if not identical_platter:
                    violations.append(
                        f"{scheme}/N=1: shard platter differs from the "
                        "unsharded build byte-for-byte check"
                    )
            taat_wall = 0.0
            taat_wall_sum = 0.0
            skews: List[float] = []
            depth = 0
            for query_set in query_sets:
                metrics = measure_sharded_run(
                    sharded, query_set.queries,
                    query_set_name=query_set.name, engine="taat",
                )
                if _rankings(metrics.results) != taat_ref[query_set.name]:
                    violations.append(
                        f"{scheme}/N={n_shards}/taat:{query_set.name}: "
                        "rankings differ from the single-disk engine"
                    )
                taat_wall += metrics.wall_s
                taat_wall_sum += metrics.wall_s_sum
                skews.append(metrics.shard_skew)
                depth = max(depth, metrics.max_queue_depth)
            pruned_docs_skipped = 0
            for query_set in query_sets:
                flat = daat_queries(query_set.queries)
                if not flat:
                    continue
                metrics = measure_sharded_run(
                    sharded, flat, query_set_name=query_set.name, engine="daat"
                )
                if _rankings(metrics.results) != daat_ref[query_set.name]:
                    violations.append(
                        f"{scheme}/N={n_shards}/daat:{query_set.name}: "
                        "rankings differ from the single-disk engine"
                    )
                pruned = measure_sharded_run(
                    sharded, flat, query_set_name=query_set.name,
                    engine="daat", prune="auto",
                )
                if _rankings(pruned.results) != daat_ref[query_set.name]:
                    violations.append(
                        f"{scheme}/N={n_shards}/daat+prune:{query_set.name}: "
                        "pruned rankings differ from the single-disk engine"
                    )
                pruned_docs_skipped += pruned.documents_skipped
            if pruned_docs_skipped == 0 and daat_ref:
                violations.append(
                    f"{scheme}/N={n_shards}: pruning never skipped a "
                    "document on any shard"
                )
            homes = [sharded.partitioner.shard_of(d) for d in prepared.doctable.lengths]
            docs = [homes.count(shard) for shard in range(n_shards)]
            row["partitioner"][scheme] = {
                "taat_wall_s": round(taat_wall, 4),
                "taat_wall_sum_s": round(taat_wall_sum, 4),
                "speedup_vs_1disk": round(
                    baseline_wall / taat_wall if taat_wall > 0 else 0.0, 2
                ),
                "shard_skew": round(max(skews), 3) if skews else 1.0,
                "max_queue_depth": depth,
                "docs_per_shard": docs,
                "pruned_documents_skipped": pruned_docs_skipped,
            }
            if scheme == "hash":
                wall_by_n[n_shards] = taat_wall
        cell["shards"][str(n_shards)] = row

    # -- scaling gate at the largest shard count ---------------------------
    top_n = max(shard_counts)
    if top_n > 1 and wall_by_n.get(top_n, 0.0) > 0:
        one_disk = wall_by_n.get(1, baseline_wall)
        speedup = one_disk / wall_by_n[top_n]
        cell["speedup_at_max_shards"] = round(speedup, 2)
        if speedup < min_speedup:
            violations.append(
                f"scaling: critical-path speedup {speedup:.2f}x at "
                f"N={top_n} is below the {min_speedup:.2f}x floor"
            )

    # -- chaos composition: one dead shard ---------------------------------
    if top_n > 1:
        def dead_run():
            sharded = materialize(prepared, config, shards=top_n)
            sharded.fault_shard(0, FaultPlan.dead_disk())
            outcomes = []
            for query_set in query_sets:
                try:
                    metrics = measure_sharded_run(
                        sharded, query_set.queries,
                        query_set_name=query_set.name,
                    )
                except Exception as error:  # noqa: BLE001 — the contract under test
                    violations.append(
                        f"dead-shard/{query_set.name}: raised "
                        f"{type(error).__name__}: {error}"
                    )
                    continue
                outcomes.append((
                    query_set.name,
                    _rankings(metrics.results),
                    [r.terms_failed for r in metrics.results],
                    metrics.degraded_queries,
                    min(r.completeness for r in metrics.results),
                ))
            return outcomes

        first, rerun = dead_run(), dead_run()
        degraded = sum(row[3] for row in first)
        min_completeness = min((row[4] for row in first), default=1.0)
        if degraded == 0:
            violations.append("dead-shard: no query was marked degraded")
        if min_completeness >= 1.0:
            violations.append("dead-shard: completeness never dropped below 1")
        if first != rerun:
            violations.append("dead-shard: same-plan rerun was not identical")
        cell["dead_shard"] = {
            "shards": top_n,
            "degraded_queries": degraded,
            "min_completeness": round(min_completeness, 4),
            "deterministic": first == rerun,
        }

    cell["violations"] = violations
    cell["ok"] = not violations
    return cell


def print_cell(name: str, cell: dict) -> None:
    print(f"{name} ({cell['config']}, baseline {cell['baseline_wall_s']:.3f}s):")
    for n_shards, row in cell["shards"].items():
        for scheme, stats in row["partitioner"].items():
            print(
                f"  N={n_shards} {scheme:<6} wall {stats['taat_wall_s']:8.3f}s "
                f"(sum {stats['taat_wall_sum_s']:8.3f}s, "
                f"{stats['speedup_vs_1disk']:.2f}x vs 1 disk, "
                f"skew {stats['shard_skew']:.3f}, "
                f"queue {stats['max_queue_depth']})"
            )
    if "dead_shard" in cell:
        dead = cell["dead_shard"]
        print(
            f"  dead shard 0/{dead['shards']}: "
            f"degraded {dead['degraded_queries']} queries, "
            f"min completeness {dead['min_completeness']:.3f}, "
            f"deterministic {dead['deterministic']}"
        )
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="shards",
    description=(
        "Document-partitioned scaling: sharded rankings bit-identical "
        "to the single-disk engine for every query set (TAAT all "
        "shapes, DAAT flat subset exhaustive and with dynamic "
        "pruning, hash and range partitioners), N=1 "
        "platter byte-identical to the unsharded build, critical-path "
        "wall-clock speedup over one disk, and degraded-not-failed "
        "serving with one shard's disk dead."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--shards", "shard_counts", list(DEFAULT_SHARDS),
               "shard counts to build and compare (default: 1 2 4)",
               nargs="+"),
        Option("--min-speedup", "min_speedup", DEFAULT_MIN_SPEEDUP,
               "critical-path speedup floor at the largest shard count",
               type=float),
    ),
    header=lambda config, shard_counts, min_speedup: {
        "config": config,
        "shard_counts": list(shard_counts),
        "min_speedup": min_speedup,
    },
)
