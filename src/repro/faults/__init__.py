"""Deterministic fault injection for the simulated storage stack.

The subsystem has two pieces:

* :class:`FaultPlan` / :class:`FaultEvent` — a seeded schedule of disk
  faults (transient read errors, at-rest bit flips, torn writes, latency
  spikes, mid-build disk-full) attached to a
  :class:`~repro.simdisk.disk.SimDisk`;
* :class:`RetryPolicy` — the bounded-backoff retry the Mneme read path
  applies before giving up, with every wait charged to the simulated
  clock.

Detaching the plan (``SimDisk.attach_fault_plan(None)``, or
``ShardedIRSystem.fault_shard(i, None)``) is the one way to disarm it.

Degraded serving on top of these lives in the engines
(:mod:`repro.inquery.engine`, :mod:`repro.inquery.daat`); the end-to-end
chaos harness is :mod:`repro.bench.chaos`.
"""

from .plan import CHANNELS, FaultEvent, FaultPlan, FaultStats
from .retry import RetryPolicy

__all__ = [
    "CHANNELS",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "RetryPolicy",
]
