"""The harness's own arithmetic, on hand-made inputs."""

import threading
import time

import pytest

from harness import min_over_passes, nearest_rank
from tracing import Tracer, covered, self_times


def test_nearest_rank_is_the_ceil_qn_th_smallest():
    values = [50.0, 10.0, 40.0, 20.0, 30.0]
    assert nearest_rank(values, 0.50) == 30.0    # ceil(2.5) = 3rd
    assert nearest_rank(values, 0.95) == 50.0    # ceil(4.75) = 5th
    assert nearest_rank(values, 0.20) == 10.0    # ceil(1.0) = 1st
    assert nearest_rank(values, 0.21) == 20.0
    assert nearest_rank([7.0], 0.95) == 7.0
    # 200 calls: p95 is the 190th, leaving ten beyond it.
    assert nearest_rank(list(range(1, 201)), 0.95) == 190
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_min_over_passes_is_per_call():
    passes = [[3.0, 1.0, 9.0], [2.0, 5.0, 8.0], [4.0, 2.0, 7.0]]
    assert min_over_passes(passes) == [2.0, 1.0, 7.0]
    with pytest.raises(ValueError):
        min_over_passes([[1.0, 2.0], [1.0]])


def test_covered_takes_the_union_clipped_to_the_parent():
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0     # overlap once
    assert covered([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 2.0     # disjoint
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0   # clipped
    assert covered([], 0.0, 10.0) == 0.0


def test_self_time_with_nested_children():
    spans = [
        (0, "root", 0.0, 10.0, None, 0),
        (1, "child", 1.0, 4.0, 0, 0),
        (2, "grandchild", 2.0, 3.0, 1, 0),
        (3, "child", 6.0, 8.0, 0, 0),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert sum(own.values()) == 10.0   # one thread: self times tile the root


def test_self_time_with_overlapping_cross_thread_children():
    # Two workers run in parallel under one fan-out span: the parent's
    # self time is what neither covers, not duration minus their sum.
    spans = [
        (0, "run_wave", 0.0, 10.0, None, 0),
        (1, "worker", 1.0, 6.0, 0, 0),
        (2, "worker", 2.0, 8.0, 0, 0),
    ]
    assert self_times(spans)[0] == 3.0


def test_tracer_parents_worker_spans_to_the_fanout_span_and_folds_recursion():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    def recursive(depth):
        if depth:
            traced_recursive(depth - 1)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_recursive = tracer.wrap("recursive", recursive)

    def fan_out():
        worker = threading.Thread(target=traced_leaf)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        traced_leaf()

    import tracing
    tracing.FANOUT.add("fan_out")
    try:
        tracer.call = 7
        tracer.wrap("fan_out", fan_out)()
    finally:
        tracing.FANOUT.discard("fan_out")
    traced_recursive(3)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (root,) = by_name["fan_out"]
    assert root[4] is None and root[5] == 7
    # One leaf ran on a worker thread, one inline: both are children of the root.
    assert [span[4] for span in by_name["leaf"]] == [root[0], root[0]]
    # Four nested calls, one span.
    assert len(by_name["recursive"]) == 1
