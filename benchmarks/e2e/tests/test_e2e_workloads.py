"""Schedules are pure functions of the seed and keep their promised shape."""

import math

import pytest

from workloads import WORKLOADS


@pytest.fixture(scope="module")
def schedules():
    return {
        name: [workload.generate(seed).calls for seed in (12, 12, 13)]
        for name, workload in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_deterministic_per_seed(schedules, name):
    first, again, other_seed = schedules[name]
    assert first == again
    assert first != other_seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pass_has_enough_calls_for_a_p95(schedules, name):
    calls = schedules[name][0]
    assert len(calls) >= 200
    assert len(calls) - math.ceil(0.95 * len(calls)) >= 10   # calls beyond p95


def test_ingest_mixed_p95_is_a_write(schedules):
    calls = schedules["ingest-mixed"][0]
    writes = sum(call.kind != "query" for call in calls)
    assert writes / len(calls) >= 0.06
    # Writes are the slowest calls, so the nearest-rank p95 lands in them.
    assert math.ceil(0.95 * len(calls)) > len(calls) - writes


def test_ingest_mixed_median_request_is_an_evaluation(schedules):
    """Under half of the requests repeat within an epoch, so sim_p50 is a
    miss (continuous) rather than a cache probe (quantised)."""
    calls = schedules["ingest-mixed"][0]
    seen, repeats, queries = set(), 0, 0
    for call in calls:
        if call.kind == "ingest":
            seen = set()
        for text in call.texts:
            queries += 1
            repeats += text in seen
            seen.add(text)
    assert repeats / queries < 0.4


def test_read_only_workloads_never_write(schedules):
    for name, workload in WORKLOADS.items():
        wrote = any(call.kind != "query" for call in schedules[name][0])
        assert wrote == workload.mutates
