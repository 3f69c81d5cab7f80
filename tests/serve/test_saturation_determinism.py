"""End-to-end determinism: a saturation run is a pure function of its seed.

Two complete runs — fresh backend, fresh traffic from the same profile —
must produce *byte-identical* report dicts: latency summaries, shed
counts, per-class breakdowns, and the exact shed trace (which request,
when, why).  This is the property that lets ``repro.bench.saturate``
gate shed-fraction drift exactly instead of within a band, and it must
survive composition with the fault layer (a dead shard degrades
results, not determinism).
"""

import json

from repro.core import materialize
from repro.faults.plan import FaultPlan
from repro.serve import QueryService, ServiceMetrics
from repro.synth.traffic import TrafficProfile, open_loop_requests

OVERLOAD = TrafficProfile(
    name="tiny-saturate",
    n_requests=48,
    rate_qps=400.0,          # far past the tiny collection's capacity
    repeat_rate=0.25,
    deadline_ms=40.0,
    batch_fraction=0.3,
    batch_deadline_ms=80.0,
    seed=47,
)


def _run(prepared, config, pool, fault=False) -> str:
    """One full saturation run, canonicalized to its metrics byte string."""
    backend = materialize(prepared, config, shards=2)
    if fault:
        backend.fault_shard(0, FaultPlan.dead_disk())
    service = QueryService(
        backend, workers=2, max_batch=4, queue_limit=8, use_cache=False
    )
    requests = open_loop_requests(pool, OVERLOAD)
    report = service.process(requests, name=OVERLOAD.name)
    metrics = ServiceMetrics.from_report(report)
    return json.dumps(metrics.as_dict(shed_trace=report.shed), sort_keys=True)


def test_two_saturation_runs_are_byte_identical(prepared, config, pool):
    first = _run(prepared, config, pool)
    second = _run(prepared, config, pool)
    assert first == second
    cell = json.loads(first)
    assert cell["shed_queue_full"] + cell["shed_deadline"] > 0, (
        "the stream must actually overload the service for this test "
        "to exercise shed determinism"
    )
    assert cell["shed_trace"], "the shed set itself must be in the comparison"
    assert cell["admitted"] + len(cell["shed_trace"]) == cell["offered"]


def test_saturation_determinism_survives_a_dead_shard(prepared, config, pool):
    # PR3/PR4 chaos composed with overload: the fault changes *which*
    # results are degraded, never the schedule or the shed set's
    # reproducibility.
    first = _run(prepared, config, pool, fault=True)
    second = _run(prepared, config, pool, fault=True)
    assert first == second
    healthy = _run(prepared, config, pool, fault=False)
    assert json.loads(first)["offered"] == json.loads(healthy)["offered"]


def test_per_class_breakdown_is_complete(prepared, config, pool):
    cell = json.loads(_run(prepared, config, pool))
    per_class = cell["per_class"]
    assert set(per_class) >= {"interactive", "batch"}
    assert sum(bucket["offered"] for bucket in per_class.values()) == (
        cell["offered"]
    )
    assert sum(bucket["admitted"] for bucket in per_class.values()) == (
        cell["admitted"]
    )
    for bucket in per_class.values():
        assert bucket["shed_queue_full"] + bucket["shed_deadline"] <= (
            bucket["offered"]
        )
