"""Pass runner: build, replay, time, and reduce to the end-to-end metrics.

Load model: closed loop, one client, one process — the next call is
issued when the previous returns.  A run is several *passes* over one
deterministic call schedule.  Passes agree bit-for-bit on every
simulated figure and ranking digest (asserted), so what differs between
them is host interference only, and every real-time quantity is the
**minimum over passes**: ``t_c`` = min duration of call *c*, ``b`` = min
set-up time.  That is why there is no separate warm-up pass — a cold
first pass can only lose the minimum.
"""

import contextlib
import ctypes
import gc
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.prepared import prepare_collection
from repro.errors import ReproError
from repro.live import LiveCorpus
from repro.simdisk.timing import BLOCK_SIZE

from workloads import Call, Inputs, Workload, wave_requests

#: Passes that set the system up from nothing (generate, prepare,
#: materialize); later passes of a read-only workload reuse the last
#: backend behind a fresh cold ``QueryService`` — bit-identical, asserted.
BUILDS = 3
MAX_PASSES = 9
#: A traced run: two untraced passes (the overhead baseline), then the
#: traced one; the first set-up only warms the heap.
TRACE_PASSES = 3
TRACE_BUILDS = 2


class NondeterminismError(Exception):
    """Two passes of one seed disagreed on a simulated figure or ranking."""


def pin_malloc() -> None:
    """Keep glibc's heap: no mmap per large array, no trim back to the OS.

    numpy's multi-megabyte temporaries otherwise go through mmap/munmap
    and every build re-faults its pages in the kernel — measured on this
    box as 3.1-9.4 s wall for a build whose user CPU is 2.3-2.7 s, against
    1.85-2.2 s with the heap pinned.  Same settings on every commit.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError) as error:
        raise RuntimeError(
            "libc.mallopt is unavailable; real-time figures would not be "
            "comparable with the committed baselines"
        ) from error
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    for param, value in (
        (m_mmap_threshold, 1 << 30),
        (m_trim_threshold, 2**31 - 1),
        (m_top_pad, 256 << 20),
    ):
        if mallopt(param, value) != 1:
            raise RuntimeError(f"mallopt({param}, {value}) was refused")


@contextlib.contextmanager
def one_cpu():
    """Run on a single CPU (the highest-numbered allowed; housekeeping
    and interrupts favour CPU 0), restoring the affinity afterwards.

    For the workload whose system runs threads.  Python threads share the
    GIL, so on two vCPUs every hand-off waits for the other vCPU to be
    scheduled: unpinned, ``shard-repeat`` passes read 4.9-7.8 s and
    collapsed by 40 % whenever the host was busy; pinned they read
    3.5-4.1 s.  A change that gives the shards real parallelism has to
    lift this pin in a benchmark change of its own.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank percentile: the ceil(q*n)-th smallest value.

    The benchmark keeps its own arithmetic (``repro.core.stats`` has the
    same definition) so that a change to the program cannot move the
    yardstick it is measured with.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def min_over_passes(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per-call minimum across passes (every pass replays the same calls)."""
    if len({len(row) for row in rows}) != 1:
        raise ValueError("passes replayed different numbers of calls")
    return [min(column) for column in zip(*rows)]


def machines(backend) -> list:
    """Every simulated machine behind a backend (flat: just the one)."""
    groups = getattr(backend, "replica_groups", None)
    if groups is None:
        return [backend]
    return [machine for group in groups for machine in group]


@dataclass
class PassRecord:
    phases: Dict[str, float]          #: generate_s/prepare_s/materialize_s/serve_s; {} if reused
    call_s: List[float]
    wall_s: float                     #: whole replay, loop overhead included
    exact: dict                       #: simulated figures + digests; equal across passes
    outputs: list = field(repr=False, default_factory=list)

    @property
    def setup_s(self) -> Optional[float]:
        return sum(self.phases.values()) if self.phases else None

    @property
    def replay_s(self) -> float:
        return sum(self.call_s)


@dataclass
class System:
    """What a pass runs against: the generated inputs and the built backend."""

    inputs: Inputs
    backend: object
    corpus: Optional[LiveCorpus]


def set_up(workload: Workload, seed: int, phases: Dict[str, float]) -> System:
    start = time.perf_counter()
    inputs = workload.generate(seed)
    corpus = LiveCorpus(inputs.collection) if workload.mutates else None
    generated = time.perf_counter()
    prepared = prepare_collection(inputs.collection)
    prepared_at = time.perf_counter()
    backend = workload.materialize(prepared)
    phases["generate_s"] = generated - start
    phases["prepare_s"] = prepared_at - generated
    phases["materialize_s"] = time.perf_counter() - prepared_at
    return System(inputs, backend, corpus)


def dispatch(service, call: Call, corpus: Optional[LiveCorpus]):
    """Issue one call; returns ``(seconds, output or the ReproError raised)``.

    Documents for an ingest are fetched before the clock starts: they are
    generated input, not work of the system under test.
    """
    if call.kind == "query":
        arguments = (wave_requests(call),)
        target = service.process
    elif call.kind == "ingest":
        arguments = (corpus.documents_for(call.adds),
                     corpus.documents_for(call.deletes))
        target = service.ingest
    else:
        arguments = ()
        target = service.compact
    start = time.perf_counter()
    try:
        output = target(*arguments)
    except ReproError as error:
        output = error
    return time.perf_counter() - start, output


def run_pass(workload: Workload, seed: int, system: Optional[System],
             observer=None) -> "tuple[PassRecord, System, object]":
    """One pass: (optionally) set up from nothing, then replay every call.

    ``observer`` (a :class:`tracing.PassObserver`) is told when the
    replay begins, which call is being served, and when it ends.
    """
    phases: Dict[str, float] = {}
    if system is None:
        system = set_up(workload, seed, phases)
    start = time.perf_counter()
    service = workload.serve(system.backend)
    if phases:
        phases["serve_s"] = time.perf_counter() - start
    call_s: List[float] = []
    outputs = []
    if observer is not None:
        observer.begin(system, service)
    replay_start = time.perf_counter()
    for index, call in enumerate(system.inputs.calls):
        if observer is not None:
            observer.on_call(index)
        seconds, output = dispatch(service, call, system.corpus)
        call_s.append(seconds)
        outputs.append(output)
    wall_s = time.perf_counter() - replay_start
    if observer is not None:
        observer.end(system, service)
    record = PassRecord(
        phases=phases, call_s=call_s, wall_s=wall_s,
        exact=exact_figures(system, outputs), outputs=outputs,
    )
    return record, system, service


def served_by_epoch(calls: Sequence[Call], outputs: Sequence) -> Dict[int, list]:
    """Epoch -> served rows, an epoch being the ingests published so far."""
    rows: Dict[int, list] = {}
    epoch = 0
    for call, output in zip(calls, outputs):
        if call.kind == "ingest":
            epoch += 1
        elif call.kind == "query" and not isinstance(output, ReproError):
            rows.setdefault(epoch, []).extend(output.served)
    return rows


def ranking_digest(rows) -> str:
    """sha256 over every served (query, ranking), floats at full precision."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr((row.text, row.result.ranking)).encode())
    return digest.hexdigest()


def exact_figures(system: System, outputs: Sequence) -> dict:
    """Everything that must be identical between passes of one seed."""
    calls = system.inputs.calls
    latencies: List[float] = []
    raised = shed = degraded = 0
    for call, output in zip(calls, outputs):
        if isinstance(output, ReproError):
            raised += call.requests
        elif call.kind == "query":
            latencies.extend(output.latencies_ms())
            shed += len(output.shed)
            degraded += sum(
                1 for row in output.served
                if row.result.degraded or row.result.completeness < 1.0
            )
    fleet = machines(system.backend)
    return {
        "latencies_ms": latencies,
        "sysio_ms": sum(m.clock.time.system_io_ms for m in fleet),
        "platter_bytes": sum(m.fs.disk.blocks_allocated for m in fleet) * BLOCK_SIZE,
        # Every machine carries the *global* collection statistics.
        "postings": fleet[0].index.stats.postings,
        "raised": raised,
        "shed": shed,
        "degraded": degraded,
        "digests": {
            str(epoch): ranking_digest(rows)
            for epoch, rows in sorted(served_by_epoch(calls, outputs).items())
        },
    }


def pass_spread(passes: Sequence[PassRecord]) -> float:
    """(max - min) / median of whole-pass replay times: a disturbed run shows."""
    walls = [p.wall_s for p in passes]
    return (max(walls) - min(walls)) / statistics.median(walls)


@dataclass
class Measurement:
    workload: Workload
    seed: int
    passes: List[PassRecord]
    system: System                    #: the last pass's, for verification
    service: object
    peak_rss_mb: float

    @property
    def calls(self) -> List[Call]:
        return self.system.inputs.calls

    @property
    def requests(self) -> int:
        return sum(call.requests for call in self.calls)

    @property
    def exact(self) -> dict:
        return self.passes[0].exact

    @property
    def real_pass_spread(self) -> float:
        return pass_spread(self.passes)


def measure(workload: Workload, seed: int, seconds: float, observer=None,
            log=lambda message: None) -> Measurement:
    """Replay ``workload.passes`` passes, and more until ``seconds`` of
    measured replay have elapsed.

    With an ``observer`` the run is instead :data:`TRACE_PASSES` passes,
    the last one traced.
    """
    passes: List[PassRecord] = []
    system = service = None
    builds = BUILDS if observer is None else TRACE_BUILDS
    while True:
        if observer is not None:
            done = len(passes) >= TRACE_PASSES
        else:
            replayed = sum(p.replay_s for p in passes)
            done = len(passes) >= MAX_PASSES or (
                len(passes) >= workload.passes and replayed >= seconds
            )
        if done:
            break
        # Drop the previous pass's outputs and (when rebuilding) system
        # before building the next, so memory holds one system at a time.
        if passes:
            passes[-1].outputs = []
        service = None
        if workload.mutates or len(passes) < builds:
            system = None
        gc.collect()
        traced = observer is not None and len(passes) == TRACE_PASSES - 1
        record, system, service = run_pass(
            workload, seed, system, observer if traced else None
        )
        if passes and record.exact != passes[0].exact:
            raise NondeterminismError(
                f"{workload.name} seed {seed}: pass {len(passes)} disagrees with "
                f"pass 0 on {_differing_keys(record.exact, passes[0].exact)}"
            )
        passes.append(record)
        log(
            f"pass {len(passes) - 1}: set-up "
            + (f"{record.setup_s:.3f} s" if record.phases else "reused")
            + f", replay {record.replay_s:.3f} s"
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measurement(workload, seed, passes, system, service, peak_rss_mb)


def _differing_keys(a: dict, b: dict) -> List[str]:
    return sorted(key for key in a if a[key] != b.get(key))


def end_to_end(m: Measurement) -> Dict[str, float]:
    """The nine end-to-end metrics, real ones as minima over passes."""
    t_c = min_over_passes([p.call_s for p in m.passes])
    exact = m.exact
    served = len(exact["latencies_ms"])
    return {
        "setup_s": min(p.setup_s for p in m.passes if p.phases),
        "real_qps": m.requests / sum(t_c),
        "real_p50_ms": nearest_rank(t_c, 0.50) * 1000.0,
        "real_p95_ms": nearest_rank(t_c, 0.95) * 1000.0,
        "sim_p50_ms": nearest_rank(exact["latencies_ms"], 0.50),
        "sim_p95_ms": nearest_rank(exact["latencies_ms"], 0.95),
        "sim_sysio_ms_per_query": exact["sysio_ms"] / served,
        "peak_rss_mb": m.peak_rss_mb,
        "platter_bytes_per_posting": exact["platter_bytes"] / exact["postings"],
    }
