"""Saturation gate: overload control measured past capacity.

Light-load averages say nothing about the regime the paper cares
about — sustained heavy traffic.  For each collection this gate offers
the serving layer an open-loop Poisson stream well above its capacity
and checks that overload is a *controlled*, deterministic state:

* **bounded p99** — admitted requests (the population the SLO is
  stated over) finish within an analytic bound: the worst class
  deadline budget (admitted requests start by their deadline — the
  expiry-at-dequeue invariant) plus one wave's worst-case service
  time;
* **deterministic shedding** — the shed fraction is nonzero at every
  worker count (the stream really is past capacity) and a second run
  with the same seed and knobs produces a byte-identical metrics dict,
  including the exact shed set;
* **bit-identity survives overload** — every *admitted* ranking still
  equals a cold single-disk evaluation of its own query text;
* **goodput monotone in workers** — admitted completions per second of
  makespan rises 1 → 2 → 4 workers (raw throughput is a property of
  the trace; goodput is the service's);
* **control beats no control** — with the same traffic and no
  admission control (unbounded queue, no deadlines), p99 explodes past
  the controlled p99, which is the whole argument for shedding.

All timing is simulated, so every number — and the shed set itself —
is a pure function of the seed and the knobs: ``--check`` gates
shed-fraction *drift* exactly and p99 within ``--p99-band`` of the
committed ``BENCH_saturate.json``.  Run it with
``python -m repro.bench saturate`` (see :mod:`repro.bench.gate` for the
flags and exit status shared by every gate).
"""

import json
import math
from typing import Dict, List, Tuple

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.prepared import materialize
from ..serve import QueryService, ServiceMetrics
from ..synth.traffic import TrafficProfile, open_loop_requests
from .gate import Gate, Option, recorded_violations
from .reference import check_invariance, cold_reference

DEFAULT_CONFIG = "mneme-cache"
DEFAULT_SHARDS = 2
DEFAULT_REQUESTS = 120
DEFAULT_WORKER_SWEEP = (1, 2, 4)
DEFAULT_MAX_BATCH = 8
#: Allowed fractional p99 increase over the baseline in ``--check``.
DEFAULT_P99_BAND = 0.10
TRAFFIC_SEED = 41
#: Offered load as a multiple of the estimated 4-worker *single-disk*
#: capacity.  The sharded backend roughly halves per-query cost and the
#: wave batching amortizes barriers, so the factor is set well past the
#: naive 1.0 to keep every sweep point saturated — shedding never zero.
OVERLOAD_FACTOR = 6.0


def _saturation_traffic(
    profile_name: str, n_requests: int, mean_cost: float, max_batch: int
) -> TrafficProfile:
    """The overload stream: past 4-worker capacity, both classes deadlined."""
    capacity_4w = 4 * 1000.0 / mean_cost  # queries/second, roughly
    return TrafficProfile(
        name=f"{profile_name}-saturate",
        n_requests=n_requests,
        rate_qps=OVERLOAD_FACTOR * capacity_4w,
        repeat_rate=0.0,  # no repeats: the cache cannot absorb the load
        deadline_ms=1.0 * max_batch * mean_cost,
        batch_fraction=0.3,
        batch_deadline_ms=2.0 * max_batch * mean_cost,
        seed=TRAFFIC_SEED,
    )


def _metrics_json(report) -> str:
    """The canonical byte string the determinism check compares."""
    metrics = ServiceMetrics.from_report(report)
    return json.dumps(
        metrics.as_dict(shed_trace=report.shed), sort_keys=True
    )


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    n_requests: int = DEFAULT_REQUESTS,
    shards: int = DEFAULT_SHARDS,
    worker_sweep=DEFAULT_WORKER_SWEEP,
    max_batch: int = DEFAULT_MAX_BATCH,
) -> dict:
    """The full overload contract for one collection profile."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared = workload.prepared
    pool = [
        query for query_set in workload.query_sets
        for query in query_set.queries
    ]
    config = config_by_name(config_name)
    reference, costs = cold_reference(prepared, config, pool)
    mean_cost, max_cost = sum(costs) / len(costs), max(costs)

    traffic = _saturation_traffic(profile_name, n_requests, mean_cost, max_batch)
    requests = open_loop_requests(pool, traffic)
    # Deep enough that the deadline-expiry path triggers alongside the
    # queue bound (a shallow queue would shed everything at admission).
    queue_limit = 4 * max_batch

    def controlled_run(workers: int):
        backend = materialize(prepared, config, shards=shards)
        service = QueryService(
            backend, engine="taat", workers=workers, max_batch=max_batch,
            use_cache=False, queue_limit=queue_limit,
        )
        return service, service.process(requests, name=f"w{workers}")

    # -- the worker sweep, every point past saturation --------------------
    runs: Dict[str, dict] = {}
    bounds: Dict[str, float] = {}
    goodput: List[Tuple[int, float]] = []
    shard_skew = 0.0
    for workers in worker_sweep:
        service, report = controlled_run(workers)
        check_invariance(
            report, reference, f"w{workers}", violations, noun="admitted"
        )
        metrics = ServiceMetrics.from_report(report)
        if metrics.shed_fraction <= 0.0:
            violations.append(
                f"w{workers}: shed fraction is zero — the stream did not "
                "saturate the service, so the gate is not testing overload"
            )
        # Admitted queueing delay is capped by the worst class budget
        # (expiry at dequeue), and one wave's service time is capped by
        # ceil(max_batch / workers) evaluations of the costliest query
        # (LPT packing), plus parse/probe overhead headroom.
        bound = (
            max(traffic.deadline_ms, traffic.batch_deadline_ms)
            + math.ceil(max_batch / workers) * 2.0 * max_cost
            + mean_cost + 5.0
        )
        bounds[str(workers)] = round(bound, 4)
        p99 = metrics.latency.get("p99_ms", 0.0)
        if p99 > bound:
            violations.append(
                f"w{workers}: admitted p99 {p99:.3f}ms exceeds the "
                f"deadline-derived bound {bound:.3f}ms"
            )
        goodput.append((workers, metrics.goodput_qps))
        shard_skew = max(shard_skew, service.stats.shard_skew)
        runs[str(workers)] = metrics.as_dict()
    for (w_before, g_before), (w_after, g_after) in zip(goodput, goodput[1:]):
        if g_after < g_before:
            violations.append(
                f"goodput fell from {g_before:.2f} q/s at {w_before} workers "
                f"to {g_after:.2f} q/s at {w_after}"
            )

    # -- same seed, same knobs: byte-identical metrics and shed set ------
    _service_a, report_a = controlled_run(2)
    _service_b, report_b = controlled_run(2)
    deterministic = _metrics_json(report_a) == _metrics_json(report_b)
    if not deterministic:
        violations.append(
            "determinism: two identical w=2 runs produced different "
            "metrics/shed traces"
        )

    # -- no control: the same traffic with an unbounded FIFO queue -------
    uncontrolled_traffic = TrafficProfile(
        name=f"{profile_name}-uncontrolled",
        n_requests=n_requests,
        rate_qps=traffic.rate_qps,
        repeat_rate=traffic.repeat_rate,
        deadline_ms=0.0,
        batch_fraction=traffic.batch_fraction,
        batch_deadline_ms=0.0,
        seed=traffic.seed,
    )
    backend = materialize(prepared, config, shards=shards)
    service = QueryService(
        backend, engine="taat", workers=2, max_batch=max_batch, use_cache=False
    )
    uncontrolled = service.process(
        open_loop_requests(pool, uncontrolled_traffic), name="uncontrolled"
    )
    uncontrolled_metrics = ServiceMetrics.from_report(uncontrolled)
    controlled_p99 = runs["2"]["latency"].get("p99_ms", 0.0)
    uncontrolled_p99 = uncontrolled_metrics.latency.get("p99_ms", 0.0)
    if uncontrolled_p99 <= controlled_p99:
        violations.append(
            f"control: uncontrolled p99 {uncontrolled_p99:.3f}ms does not "
            f"exceed controlled p99 {controlled_p99:.3f}ms — admission "
            "control bought nothing on this stream"
        )

    return {
        "config": config_name,
        "shards": shards,
        "max_batch": max_batch,
        "queue_limit": queue_limit,
        "mean_service_ms": round(mean_cost, 4),
        "max_service_ms": round(max_cost, 4),
        "traffic": {
            "n_requests": n_requests,
            "rate_qps": round(traffic.rate_qps, 2),
            "repeat_rate": traffic.repeat_rate,
            "deadline_ms": round(traffic.deadline_ms, 4),
            "batch_fraction": traffic.batch_fraction,
            "batch_deadline_ms": round(traffic.batch_deadline_ms, 4),
            "seed": traffic.seed,
        },
        "p99_bound_ms": bounds,
        "workers": runs,
        "deterministic": deterministic,
        "shard_skew": round(shard_skew, 4),
        "uncontrolled": {
            "p99_ms": uncontrolled_p99,
            "max_ms": uncontrolled_metrics.latency.get("max_ms", 0.0),
            "throughput_qps": round(uncontrolled_metrics.goodput_qps, 2),
        },
        "violations": violations,
        "ok": not violations,
    }


def compare_cell(
    profile_name: str, cell: dict, base_cell: dict,
    p99_band: float = DEFAULT_P99_BAND,
) -> List[str]:
    """Regressions of one profile's cell against its baseline cell.

    Shedding is a pure function of the seeded trace, so any
    shed-fraction drift at all is a behavior change and fails exactly;
    p99 of admitted requests may grow by at most ``p99_band`` (fraction
    of the baseline).  Missing worker points, and any violation recorded
    in the current run, fail outright.
    """
    failures = recorded_violations(profile_name, cell)
    for workers, base_run in base_cell.get("workers", {}).items():
        run = cell.get("workers", {}).get(workers)
        if run is None:
            failures.append(
                f"{profile_name}/w{workers}: worker point missing "
                "from the current run"
            )
            continue
        base_shed = base_run.get("shed_fraction", 0.0)
        shed = run.get("shed_fraction", 0.0)
        if shed != base_shed:
            failures.append(
                f"{profile_name}/w{workers}: shed fraction drifted "
                f"from {base_shed} to {shed} (shedding is deterministic; "
                "any drift is a behavior change)"
            )
        base_p99 = base_run.get("latency", {}).get("p99_ms", 0.0)
        p99 = run.get("latency", {}).get("p99_ms", 0.0)
        ceiling = base_p99 * (1.0 + p99_band)
        if base_p99 > 0 and p99 > ceiling:
            failures.append(
                f"{profile_name}/w{workers}: admitted p99 {p99:.3f}ms "
                f"exceeds {ceiling:.3f}ms "
                f"(baseline {base_p99:.3f}ms, band {p99_band:.2f})"
            )
    return failures


def print_cell(name: str, cell: dict) -> None:
    print(
        f"{name} ({cell['config']}, {cell['shards']} shards, "
        f"mean query {cell['mean_service_ms']:.2f}ms, "
        f"offered {cell['traffic']['rate_qps']:.0f} q/s):"
    )
    for workers, run in cell["workers"].items():
        latency = run["latency"]
        print(
            f"  w={workers}  admitted {run['admitted']:4d}/"
            f"{run['offered']:4d}  shed {run['shed_fraction']:6.2%} "
            f"(queue {run['shed_queue_full']}, deadline "
            f"{run['shed_deadline']})  p99 {latency.get('p99_ms', 0.0):9.3f}ms  "
            f"goodput {run['goodput_qps']:7.1f} q/s"
        )
    uncontrolled = cell["uncontrolled"]
    print(
        f"  uncontrolled (w=2, no queue bound, no deadlines)  "
        f"p99 {uncontrolled['p99_ms']:9.3f}ms"
    )
    print(
        f"  deterministic: {cell['deterministic']}  "
        f"shard skew {cell['shard_skew']:.2f}"
    )
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="saturate",
    description=(
        "Overload control on simulated time: open-loop traffic past "
        "capacity with a bounded admission queue, per-class deadlines "
        "(interactive beats batch), and deterministic shedding — "
        "admitted p99 within the deadline-derived bound, shed set "
        "byte-identical across same-seed runs, every admitted ranking "
        "bit-identical to a cold single-disk evaluation, goodput "
        "monotone in worker count, and p99 worse without control."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--requests", "n_requests", DEFAULT_REQUESTS,
               "requests in each saturation stream"),
        Option("--shards", "shards", DEFAULT_SHARDS,
               "shard count behind the service"),
    ),
    check_options=(
        Option("--p99-band", "p99_band", DEFAULT_P99_BAND,
               "allowed fractional p99 increase over baseline (with --check)",
               type=float),
    ),
    compare_cell=compare_cell,
)
