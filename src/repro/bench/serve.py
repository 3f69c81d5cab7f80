"""Traffic benchmark and invariance gate for the serving layer.

For each paper collection this gate drives synthetic request streams
through :class:`~repro.serve.service.QueryService` and checks the whole
serving contract in one pass:

* **invariance** — every served ranking (cache hit, miss, or in-wave
  share; term-at-a-time over shards and flat document-at-a-time) must
  be *bit-identical* to a cold single-disk evaluation of that request's
  own query text;
* **cache payoff** — on a repeat-heavy open-loop Poisson stream, p50
  latency with the result cache must beat the cache-off baseline by at
  least ``--min-p50-speedup`` (default 5x), over identical traffic;
* **worker scaling** — on the TIPSTER profiles, burst (overload)
  throughput must increase monotonically from 1 to 4 simulated
  workers, cache off, over a 4-shard backend;
* **degradation hygiene** — with one shard's disk dead, traffic is
  served degraded without raising and *nothing* degraded enters the
  cache.

All timing is on the repo's simulated clocks (the same machine model as
every other gate), so the numbers — and the pass/fail verdict — are
deterministic across machines: ``--check`` gates every cell by exact
equality against the committed ``BENCH_serve.json``.  Run it with
``python -m repro.bench serve`` (see :mod:`repro.bench.gate` for the
flags and exit status shared by every gate).
"""

from typing import Dict, List, Optional

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.prepared import materialize
from ..faults.plan import FaultPlan
from ..inquery.daat import daat_queries
from ..serve import QueryService
from ..synth.traffic import TrafficProfile, open_loop_requests
from .gate import Gate, Option
from .reference import check_invariance, cold_reference

DEFAULT_CONFIG = "mneme-cache"
DEFAULT_SHARDS = 2
DEFAULT_REQUESTS = 160
DEFAULT_REPEAT_RATE = 0.75
DEFAULT_MIN_P50_SPEEDUP = 5.0
DEFAULT_WORKER_SWEEP = (1, 2, 4)
#: Profiles whose worker-scaling sweep is gated (the big collections).
SCALING_PROFILES = ("tipster1-s", "tipster-s")
TRAFFIC_SEED = 29


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    n_requests: int = DEFAULT_REQUESTS,
    shards: int = DEFAULT_SHARDS,
    min_p50_speedup: float = DEFAULT_MIN_P50_SPEEDUP,
    worker_sweep=DEFAULT_WORKER_SWEEP,
) -> dict:
    """The full serving contract for one collection profile."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared = workload.prepared
    pool = [
        query for query_set in workload.query_sets
        for query in query_set.queries
    ]
    config = config_by_name(config_name)

    taat_ref, costs = cold_reference(prepared, config, pool)
    mean_cost = sum(costs) / len(costs)

    # -- repeat-heavy traffic, cache on vs. off over identical requests --
    traffic = TrafficProfile(
        name=f"{profile_name}-repeat-heavy",
        n_requests=n_requests,
        # Offered load ~60% of a 2-worker service's capacity, so queueing
        # is visible but the cache-off baseline still drains.
        rate_qps=1200.0 / mean_cost,
        repeat_rate=DEFAULT_REPEAT_RATE,
        seed=TRAFFIC_SEED,
    )
    requests = open_loop_requests(pool, traffic)
    runs: Dict[str, dict] = {}
    for label, use_cache in (("cache_on", True), ("cache_off", False)):
        backend = materialize(prepared, config, shards=shards)
        service = QueryService(
            backend, engine="taat", workers=2, max_batch=8, use_cache=use_cache
        )
        report = service.process(requests, name=label)
        check_invariance(report, taat_ref, f"taat/{label}", violations)
        cell = report.summary()
        if service.cache is not None:
            cell["cache"] = service.cache.stats.as_dict()
        runs[label] = cell
    p50_on = runs["cache_on"]["p50_ms"]
    p50_off = runs["cache_off"]["p50_ms"]
    p50_speedup = p50_off / p50_on if p50_on > 0 else 0.0
    if p50_speedup < min_p50_speedup:
        violations.append(
            f"cache: p50 speedup {p50_speedup:.2f}x on repeat-heavy traffic "
            f"is below the {min_p50_speedup:.2f}x floor "
            f"({p50_off:.3f}ms off vs {p50_on:.3f}ms on)"
        )

    # -- document-at-a-time invariance on the flat subset ----------------
    daat_cell: Optional[dict] = None
    flat_pool = daat_queries(pool)
    if flat_pool:
        daat_ref, _ = cold_reference(prepared, config, flat_pool, "daat")
        daat_traffic = TrafficProfile(
            name=f"{profile_name}-daat",
            n_requests=min(n_requests, 2 * len(flat_pool)),
            rate_qps=0.0,
            repeat_rate=0.5,
            seed=TRAFFIC_SEED + 1,
        )
        daat_requests = open_loop_requests(flat_pool, daat_traffic)
        service = QueryService(
            materialize(prepared, config), engine="daat", workers=2, max_batch=8
        )
        report = service.process(daat_requests, name="daat")
        check_invariance(report, daat_ref, "daat", violations)
        daat_cell = report.summary()

    # -- worker scaling under burst (overload) traffic -------------------
    scaling: Dict[str, float] = {}
    if profile_name in SCALING_PROFILES:
        burst = TrafficProfile(
            name=f"{profile_name}-burst",
            n_requests=min(len(pool), 80),
            rate_qps=0.0,  # everything arrives at t=0: pure overload
            repeat_rate=0.0,
            seed=TRAFFIC_SEED + 2,
        )
        burst_requests = open_loop_requests(pool, burst)
        sharded = materialize(prepared, config, shards=4)
        for workers in worker_sweep:
            service = QueryService(
                sharded, engine="taat", workers=workers,
                max_batch=16, use_cache=False,
            )
            report = service.process(burst_requests, name=f"w{workers}")
            check_invariance(
                report, taat_ref, f"burst/workers={workers}", violations
            )
            scaling[str(workers)] = round(report.throughput_qps, 2)
        ordered = [scaling[str(w)] for w in worker_sweep]
        for before, after, w_before, w_after in zip(
            ordered, ordered[1:], worker_sweep, worker_sweep[1:]
        ):
            if after < before:
                violations.append(
                    f"scaling: burst throughput fell from {before} q/s at "
                    f"{w_before} workers to {after} q/s at {w_after}"
                )

    # -- degraded traffic: dead shard, nothing degraded cached -----------
    dead = materialize(prepared, config, shards=shards)
    dead.fault_shard(0, FaultPlan.dead_disk())
    service = QueryService(dead, engine="taat", workers=2, max_batch=8)
    try:
        report = service.process(requests[: n_requests // 2], name="dead-shard")
    except Exception as error:  # noqa: BLE001 — the contract under test
        violations.append(
            f"dead-shard: raised {type(error).__name__}: {error}"
        )
        degraded_cell = {"raised": True}
    else:
        degraded = sum(
            1 for row in report.served if row.result.completeness < 1.0
        )
        cached = len(service.cache) if service.cache is not None else 0
        if degraded == 0:
            violations.append("dead-shard: no request was served degraded")
        if cached != 0:
            violations.append(
                f"dead-shard: {cached} degraded results were admitted "
                "to the cache"
            )
        degraded_cell = {
            "requests": len(report.served),
            "degraded_served": degraded,
            "cache_entries": cached,
            "rejected_degraded": (
                service.cache.stats.rejected_degraded
                if service.cache is not None
                else 0
            ),
        }

    cell: dict = {
        "config": config_name,
        "shards": shards,
        "mean_service_ms": round(mean_cost, 4),
        "traffic": {
            "n_requests": n_requests,
            "rate_qps": round(traffic.rate_qps, 2),
            "repeat_rate": traffic.repeat_rate,
            "seed": traffic.seed,
        },
        "cache_on": runs["cache_on"],
        "cache_off": runs["cache_off"],
        "p50_speedup": round(p50_speedup, 2),
        "dead_shard": degraded_cell,
        "violations": violations,
        "ok": not violations,
    }
    if daat_cell is not None:
        cell["daat"] = daat_cell
    if scaling:
        cell["burst_throughput_qps_by_workers"] = scaling
    return cell


def print_cell(name: str, cell: dict) -> None:
    on, off = cell["cache_on"], cell["cache_off"]
    print(
        f"{name} ({cell['config']}, {cell['shards']} shards, "
        f"mean query {cell['mean_service_ms']:.2f}ms):"
    )
    print(
        f"  cache on   p50 {on['p50_ms']:8.3f}ms  p95 {on['p95_ms']:8.3f}ms  "
        f"p99 {on['p99_ms']:8.3f}ms  {on['throughput_qps']:7.1f} q/s  "
        f"hit rate {on['hit_rate']:.2f}"
    )
    print(
        f"  cache off  p50 {off['p50_ms']:8.3f}ms  p95 {off['p95_ms']:8.3f}ms  "
        f"p99 {off['p99_ms']:8.3f}ms  {off['throughput_qps']:7.1f} q/s"
    )
    print(f"  p50 speedup {cell['p50_speedup']:.2f}x")
    if "burst_throughput_qps_by_workers" in cell:
        sweep = ", ".join(
            f"{w}w: {qps} q/s"
            for w, qps in cell["burst_throughput_qps_by_workers"].items()
        )
        print(f"  burst scaling  {sweep}")
    dead = cell["dead_shard"]
    if not dead.get("raised"):
        print(
            f"  dead shard  {dead['degraded_served']}/{dead['requests']} "
            f"degraded, {dead['cache_entries']} cached, "
            f"{dead['rejected_degraded']} admissions refused"
        )
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="serve",
    description=(
        "Concurrent batch query service with a normalized-query "
        "result cache, on simulated time: every served ranking "
        "(cached, shared, or evaluated; sharded TAAT and flat DAAT) "
        "bit-identical to a cold single-disk evaluation; p50 latency "
        "on repeat-heavy Poisson traffic at least the floor times "
        "better with the cache than without on identical requests; "
        "burst throughput monotone in worker count on the TIPSTER "
        "profiles; degraded results served but never cached with a "
        "dead shard."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--requests", "n_requests", DEFAULT_REQUESTS,
               "requests in the repeat-heavy traffic run"),
        Option("--shards", "shards", DEFAULT_SHARDS,
               "shard count behind the cached service"),
        Option("--min-p50-speedup", "min_p50_speedup", DEFAULT_MIN_P50_SPEEDUP,
               "cache-on p50 latency improvement floor", type=float),
    ),
    header=lambda config, min_p50_speedup, **_: {
        "config": config, "min_p50_speedup": min_p50_speedup,
    },
)
