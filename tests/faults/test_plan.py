"""Unit tests for deterministic fault plans."""

import pytest

from repro.errors import BadBlockError
from repro.faults import FaultEvent, FaultPlan
from repro.simdisk import SimClock, SimDisk


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent("no-such-kind", at_op=0)
    with pytest.raises(ValueError):
        FaultEvent("transient-read", at_op=-1)
    with pytest.raises(ValueError):
        FaultEvent("transient-read", at_op=0, times=0)


def test_probe_plan_counts_eligible_ops_per_channel():
    plan = FaultPlan(eligible_blocks={1, 2})
    plan.observe_read(1)
    plan.observe_read(2)
    plan.observe_read(99)   # not eligible: not counted
    plan.observe_write(1)
    plan.observe_alloc()    # allocs have no block, always eligible
    assert plan.ops == {"read": 2, "write": 1, "alloc": 1}
    assert plan.stats.total == 0


def test_event_fires_at_exact_eligible_op():
    plan = FaultPlan([FaultEvent("transient-read", at_op=2)])
    assert plan.observe_read(10) is None
    assert plan.observe_read(11) is None
    fault = plan.observe_read(12)
    assert fault is not None and fault.kind == "transient-read"
    assert fault.bound_block == 12
    assert plan.stats.transient_reads == 1
    assert plan.exhausted


def test_sticky_event_refires_only_on_its_bound_block():
    plan = FaultPlan([FaultEvent("transient-read", at_op=0, times=3)])
    first = plan.observe_read(7)
    assert first is not None and first.bound_block == 7
    # A different block does not consume the sticky budget.
    assert plan.observe_read(8) is None
    # Re-reads of the stuck block keep failing until the budget is spent.
    assert plan.observe_read(7) is not None
    assert plan.observe_read(7) is not None
    assert plan.observe_read(7) is None
    assert plan.stats.transient_reads == 3


def test_clear_drops_pending_firings():
    plan = FaultPlan([
        FaultEvent("transient-read", at_op=0, times=2),
        FaultEvent("torn-write", at_op=5),
    ])
    plan.observe_read(1)
    assert plan.unfired == 2  # one sticky firing + the torn write
    assert plan.clear() == 2
    assert plan.exhausted
    assert plan.observe_read(1) is None  # the sticky remainder is gone


def test_seeded_plans_are_deterministic_and_distinct():
    kwargs = dict(
        read_ops=100, write_ops=50, transient_reads=2, stuck_reads=1,
        bit_flips=2, latency_spikes=1, torn_writes=2,
    )
    a = FaultPlan.seeded(42, **kwargs)
    b = FaultPlan.seeded(42, **kwargs)
    c = FaultPlan.seeded(43, **kwargs)
    schedule = lambda plan: [  # noqa: E731
        (e.kind, e.at_op, e.times, e.bit) for e in plan.events
    ]
    assert schedule(a) == schedule(b)
    assert schedule(a) != schedule(c)
    assert len(a.events) == 8
    # No two events contend for the same operation slot on a channel.
    read_slots = [e.at_op for e in a.events if e.channel == "read"]
    assert len(read_slots) == len(set(read_slots))


def test_seeded_stuck_reads_exceed_the_retry_budget():
    plan = FaultPlan.seeded(
        7, read_ops=10, stuck_reads=1, retry_attempts=4,
    )
    (event,) = plan.events
    assert event.times == 4  # every attempt fails -> the reader gives up


def test_kill_switch_disables_counting_and_firing():
    # Detaching the plan is the one way to disarm it: a detached plan
    # neither counts nor fires, and re-attaching it arms it again.
    disk = SimDisk(SimClock())
    block = disk.allocate()
    plan = FaultPlan([FaultEvent("transient-read", at_op=0)])
    disk.attach_fault_plan(plan)
    disk.attach_fault_plan(None)
    disk.read_block(block)
    assert plan.ops["read"] == 0
    disk.attach_fault_plan(plan)
    with pytest.raises(BadBlockError):
        disk.read_block(block)


def test_seeded_scales_down_when_horizon_is_small():
    plan = FaultPlan.seeded(3, read_ops=2, transient_reads=10)
    assert len(plan.events) == 2
