"""The synthetic traffic layer: determinism, repetition, burst shape."""

import pytest

from repro.errors import ConfigError
from repro.synth import TrafficProfile, open_loop_requests

POOL = [f"#sum(t{i:04d} t{i + 1:04d})" for i in range(0, 40, 2)]


def test_open_loop_is_deterministic():
    profile = TrafficProfile(name="det", n_requests=50, rate_qps=100.0, seed=5)
    first = open_loop_requests(POOL, profile)
    second = open_loop_requests(POOL, profile)
    assert first == second


def test_open_loop_seed_changes_stream():
    base = TrafficProfile(name="a", n_requests=50, rate_qps=100.0, seed=5)
    other = TrafficProfile(name="b", n_requests=50, rate_qps=100.0, seed=6)
    assert open_loop_requests(POOL, base) != open_loop_requests(POOL, other)


def test_open_loop_arrivals_are_nondecreasing():
    profile = TrafficProfile(name="mono", n_requests=80, rate_qps=200.0)
    requests = open_loop_requests(POOL, profile)
    arrivals = [request.arrival_ms for request in requests]
    assert arrivals == sorted(arrivals)
    assert arrivals[0] > 0.0


def test_burst_mode_arrives_at_time_zero():
    profile = TrafficProfile(name="burst", n_requests=10, rate_qps=0.0)
    requests = open_loop_requests(POOL, profile)
    assert all(request.arrival_ms == 0.0 for request in requests)


def test_repeat_rate_zero_cycles_the_pool():
    profile = TrafficProfile(
        name="norepeat", n_requests=len(POOL), rate_qps=0.0, repeat_rate=0.0
    )
    requests = open_loop_requests(POOL, profile)
    assert [request.text for request in requests] == POOL


def test_repeat_rate_controls_duplication():
    # A pool wider than the stream, so every duplicate is a history
    # re-issue, not pool recycling.
    wide_pool = [f"#sum(t{i:04d})" for i in range(300)]

    def duplication(repeat_rate):
        profile = TrafficProfile(
            name="dup", n_requests=200, rate_qps=0.0,
            repeat_rate=repeat_rate, seed=11,
        )
        texts = [r.text for r in open_loop_requests(wide_pool, profile)]
        return len(texts) - len(set(texts))

    assert duplication(0.0) == 0
    assert duplication(0.3) > 20
    assert duplication(0.8) > duplication(0.3)


def test_traffic_validation():
    with pytest.raises(ConfigError):
        open_loop_requests([], TrafficProfile(name="empty"))
    with pytest.raises(ConfigError):
        open_loop_requests(POOL, TrafficProfile(name="none", n_requests=0))
    with pytest.raises(ConfigError):
        open_loop_requests(POOL, TrafficProfile(name="rr", repeat_rate=1.0))
