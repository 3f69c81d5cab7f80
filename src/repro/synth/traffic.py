"""Synthetic serving traffic: request streams over a query pool.

:mod:`repro.synth.queries` models *term* repetition within a query set
("there is significant repetition of the terms used from query to
query") — the fact that makes the paper's record cache pay off.  This
module layers the serving-time analogue on top: *query* repetition
within a request stream, the fact that makes a whole-result cache pay
off.  With probability ``repeat_rate`` a request re-issues a query the
stream already served (drawn uniformly from its own history, so popular
queries compound); otherwise it takes the next query from the pool.

The load shape is an **open loop** (:func:`open_loop_requests`):
arrivals are a Poisson process at ``rate_qps`` *simulated* queries per
second — requests arrive whether or not the service keeps up, so
queueing delay shows up in the latency distribution.  ``rate_qps = 0``
degenerates to a burst: every request arrives at t=0 (the overload
shape the worker scaling gate uses).  The stream is served by
:meth:`~repro.serve.service.QueryService.process`.

Overload knobs
--------------
Requests optionally carry a **priority class** and a **deadline** for
the admission-control machinery in :mod:`repro.serve`:

* ``batch_fraction`` makes each request ``"batch"`` with that
  probability (``"interactive"`` otherwise) — interactive beats batch
  at wave formation;
* ``deadline_ms`` / ``batch_deadline_ms`` are per-class *relative*
  deadline budgets; a request's absolute deadline is its arrival plus
  its class's budget (0 means that class carries no deadline and may
  wait forever).

Both draws come from the stream's single seeded generator, so the
arrival/class/deadline triple is one deterministic stream: the same
profile over the same pool yields the same requests, the same classes,
and the same deadlines, which the saturation gate relies on to call
its shed set deterministic.  With ``batch_fraction = 0`` no class draw
is made at all, so pre-overload profiles reproduce their historical
streams bit for bit.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError

#: Priority classes, best first; rank order is wave-formation order.
PRIORITIES = ("interactive", "batch")
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}


@dataclass(frozen=True)
class TrafficProfile:
    """Shape parameters of one request stream."""

    name: str
    n_requests: int = 200
    #: Mean arrival rate in simulated queries/second; 0 means a burst
    #: (all requests arrive at t=0).
    rate_qps: float = 50.0
    #: Probability a request repeats an earlier query verbatim.
    repeat_rate: float = 0.5
    #: Relative deadline budget for interactive requests, in simulated
    #: milliseconds past arrival; 0 means interactive requests carry
    #: no deadline.
    deadline_ms: float = 0.0
    #: Probability a request belongs to the ``"batch"`` class.
    batch_fraction: float = 0.0
    #: Relative deadline budget for batch requests; 0 means batch
    #: requests carry no deadline (they tolerate arbitrary queueing).
    batch_deadline_ms: float = 0.0
    seed: int = 17


@dataclass(frozen=True)
class TimedRequest:
    """One request: query text, arrival, class, and admission deadline.

    ``deadline_ms`` is *absolute* on the service clock (arrival plus
    the class's budget), or ``None`` for a request that may wait
    forever.  ``seq`` is the request's position in its stream — the
    deterministic tie-breaker the service's (priority, arrival, seq)
    wave order needs when arrivals coincide (bursts).
    """

    text: str
    arrival_ms: float
    priority: str = "interactive"
    deadline_ms: Optional[float] = None
    seq: int = 0


def _validate(profile: TrafficProfile, pool: Sequence[str]) -> None:
    if profile.n_requests < 1:
        raise ConfigError("traffic needs at least one request")
    if not 0.0 <= profile.repeat_rate < 1.0:
        raise ConfigError("repeat_rate must be in [0, 1)")
    if profile.rate_qps < 0.0:
        raise ConfigError("rate_qps must be non-negative")
    if not 0.0 <= profile.batch_fraction <= 1.0:
        raise ConfigError("batch_fraction must be in [0, 1]")
    if profile.deadline_ms < 0.0:
        raise ConfigError("deadline_ms must be non-negative")
    if profile.batch_deadline_ms < 0.0:
        raise ConfigError("batch_deadline_ms must be non-negative")
    if not pool:
        raise ConfigError("traffic needs a non-empty query pool")


def open_loop_requests(
    pool: Sequence[str], profile: TrafficProfile
) -> List[TimedRequest]:
    """A Poisson request stream: texts with arrival times, ready to serve.

    One generator draws, in this order: every inter-arrival gap, then
    per request the repeat coin (once there is a history), the history
    pick on a repeat, and the class coin (only when ``batch_fraction``
    is nonzero).  The order is the stream's identity — every committed
    stream and digest depends on it.
    """
    _validate(profile, pool)
    rng = np.random.default_rng(profile.seed)
    if profile.rate_qps > 0:
        gaps = rng.exponential(1000.0 / profile.rate_qps, size=profile.n_requests)
        arrivals = np.cumsum(gaps)
    else:
        arrivals = np.zeros(profile.n_requests)
    history: List[str] = []
    cursor = 0
    requests: List[TimedRequest] = []
    for seq, arrival in enumerate(arrivals):
        if history and rng.random() < profile.repeat_rate:
            text = history[int(rng.integers(len(history)))]
        else:
            text = pool[cursor % len(pool)]
            cursor += 1
        history.append(text)
        if profile.batch_fraction > 0 and rng.random() < profile.batch_fraction:
            priority, budget = "batch", profile.batch_deadline_ms
        else:
            priority, budget = "interactive", profile.deadline_ms
        arrival_ms = float(arrival)
        requests.append(TimedRequest(
            text=text,
            arrival_ms=arrival_ms,
            priority=priority,
            deadline_ms=arrival_ms + budget if budget > 0 else None,
            seq=seq,
        ))
    return requests
