"""Chaos harness: fault-tolerant query serving under injected failures.

Every other benchmark in :mod:`repro.bench` measures how fast the system
is; this one measures whether it *stays up*.  For each paper collection
the harness builds the WAL-backed linked-Mneme system four times on
identical prepared data and replays every query set through both
engines (term-at-a-time and document-at-a-time) under a seeded
:class:`~repro.faults.plan.FaultPlan`:

1. **baseline** — no faults; records the fault-free rankings and probes
   the eligible-operation horizon (reads of the main inverted file) the
   fault schedule is sampled from;
2. **faulted** — torn writes during the build, then transient reads,
   stuck sectors, silent bit flips, and latency spikes during the query
   replay.  The contract: *no query may raise*.  Unreadable terms
   degrade the result (``degraded=True`` with completeness accounting);
   checksum failures are repaired from the redo log;
3. **faulted again, same seed** — every ranking, degraded flag, fault
   counter, and resilience counter must be identical (the whole point
   of deterministic injection);
4. **after faults clear** — the pending schedule is dropped, caches go
   cold, and the replay must produce rankings *bit-identical to the
   fault-free baseline*: read-repair has healed every torn or flipped
   block that matters, and degraded mode leaves no residue.

A fifth, separate build schedules a mid-build ``disk-full`` allocation
fault and asserts the build dies with a clean
:class:`~repro.errors.DiskFullError` — not a corrupted half-index.

Run it with ``python -m repro.bench chaos [--seed N] [--sweep K]`` (or
``scripts/chaos.sh``; see :mod:`repro.bench.gate` for the flags and exit
status shared by every gate).  The nightly seed is randomised, so this
gate commits no baseline and has no ``--check``; the per-run report
(JSON with ``--out``) includes the fault and resilience counters so a
run that injected nothing is visible.
"""

import zlib
from typing import Dict, List, Optional, Tuple

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.metrics import cold_start
from ..core.prepared import IRSystem, PreparedCollection, materialize
from ..errors import DiskFullError
from ..faults import FaultEvent, FaultPlan
from ..inquery.daat import DocumentAtATimeEngine, daat_queries
from ..inquery.engine import DEFAULT_TOP_K, RetrievalEngine
from .gate import Gate, Option

DEFAULT_CONFIG = "mneme-linked"
DEFAULT_SEED = 1337

#: Fault mix per profile run (scaled down automatically when a profile's
#: eligible-operation horizon is smaller than the event count).
DEFAULT_MIX = dict(
    transient_reads=3,
    stuck_reads=2,
    bit_flips=2,
    latency_spikes=2,
    torn_writes=3,
)


def _profile_seed(seed: int, profile_name: str) -> int:
    """Stable per-profile seed (``hash()`` is salted; crc32 is not)."""
    return seed ^ zlib.crc32(profile_name.encode("ascii"))


def _build(
    prepared: PreparedCollection,
    config_name: str,
    fault_plan: Optional[FaultPlan] = None,
) -> IRSystem:
    config = config_by_name(config_name, use_wal=True)
    if config.backend == "btree":
        raise ValueError("chaos serving requires a Mneme backend with a redo log")
    return materialize(prepared, config, fault_plan=fault_plan)


def _phases(system: IRSystem, query_sets) -> List[Tuple[str, List[str], object]]:
    """(phase name, queries, engine) for every TAAT and DAAT replay."""
    phases = []
    for query_set in query_sets:
        engine = RetrievalEngine(
            system.index,
            top_k=DEFAULT_TOP_K,
            use_reservation=system.config.use_reservation,
        )
        phases.append((f"taat:{query_set.name}", list(query_set.queries), engine))
    for query_set in query_sets:
        flat = daat_queries(query_set.queries)
        if not flat:
            continue
        engine = DocumentAtATimeEngine(system.index, top_k=50)
        phases.append((f"daat:{query_set.name}", flat, engine))
    return phases


def _replay(system: IRSystem, query_sets, violations: List[str], label: str) -> dict:
    """Replay every query set cold; nothing may escape a query.

    Returns the observable outcome: per-phase rankings, degraded flags,
    and failed-term totals — the unit of comparison for the determinism
    and after-clear contracts.
    """
    outcome = {"phases": [], "queries": 0, "degraded_queries": 0, "terms_failed": 0}
    for phase_name, queries, engine in _phases(system, query_sets):
        cold_start(system)
        rankings, degraded = [], []
        terms_failed = 0
        for query in queries:
            outcome["queries"] += 1
            try:
                result = engine.run_query(query)
            except Exception as error:  # noqa: BLE001 — the contract under test
                violations.append(
                    f"{label}/{phase_name}: query {query!r} raised "
                    f"{type(error).__name__}: {error}"
                )
                rankings.append(None)
                degraded.append(None)
                continue
            rankings.append(result.ranking)
            degraded.append(result.degraded)
            terms_failed += result.terms_failed
            if result.degraded:
                outcome["degraded_queries"] += 1
        outcome["terms_failed"] += terms_failed
        outcome["phases"].append(
            {"phase": phase_name, "rankings": rankings, "degraded": degraded}
        )
    return outcome


def _observables(system: IRSystem, plans: List[FaultPlan]) -> dict:
    """Counters that must agree between two same-seed runs."""
    mfile = system.index.store.mfile
    merged: Dict[str, int] = {}
    for plan in plans:
        for kind, count in plan.stats.as_dict().items():
            merged[kind] = merged.get(kind, 0) + count
    return {
        "faults": merged,
        "resilience": mfile.resilience.as_dict(),
        "disk_failed_reads": system.fs.disk.stats.failed_reads,
    }


def chaos_profile(
    prepared: PreparedCollection,
    query_sets,
    seed: int,
    config_name: str = DEFAULT_CONFIG,
    mix: Optional[Dict[str, int]] = None,
) -> dict:
    """Run the full chaos contract for one prepared collection.

    Exposed below the CLI so the test suite can drive it on a tiny
    fixture collection; ``query_sets`` is any iterable of objects with
    ``name`` and ``queries``.
    """
    mix = dict(DEFAULT_MIX, **(mix or {}))
    violations: List[str] = []
    report: dict = {"seed": seed, "config": config_name}

    # -- 1. baseline: fault-free rankings + the fault schedule's horizon ---
    baseline = _build(prepared, config_name)
    build_allocs = baseline.fs.disk.blocks_allocated
    main_blocks = set(baseline.index.store.mfile.main._blocks)
    probe = FaultPlan(eligible_blocks=main_blocks)
    baseline.fs.disk.attach_fault_plan(probe)
    base_outcome = _replay(baseline, query_sets, violations, "baseline")
    baseline.fs.disk.attach_fault_plan(None)
    read_ops = probe.ops["read"]
    # Every main block is written at least once during the build, so the
    # block count is a safe lower bound on the eligible write horizon.
    write_ops = len(main_blocks)
    report["horizon"] = {"read_ops": read_ops, "write_ops": write_ops}
    if base_outcome["degraded_queries"]:
        violations.append("baseline: degraded queries in a fault-free run")

    # -- 2 + 3. two identically-seeded faulted runs ------------------------
    def faulted_run(label: str):
        plan_build = FaultPlan.seeded(
            _profile_seed(seed, prepared.name) * 2 + 1,
            write_ops=write_ops,
            torn_writes=mix["torn_writes"],
            eligible_blocks=main_blocks,
        )
        try:
            system = _build(prepared, config_name, fault_plan=plan_build)
        except Exception as error:  # noqa: BLE001 — torn writes must not kill a build
            violations.append(
                f"{label}/build: raised {type(error).__name__}: {error}"
            )
            return None, None, None, None
        plan_query = FaultPlan.seeded(
            _profile_seed(seed, prepared.name) * 2,
            read_ops=read_ops,
            transient_reads=mix["transient_reads"],
            stuck_reads=mix["stuck_reads"],
            bit_flips=mix["bit_flips"],
            latency_spikes=mix["latency_spikes"],
            eligible_blocks=main_blocks,
        )
        system.fs.disk.attach_fault_plan(plan_query)
        outcome = _replay(system, query_sets, violations, label)
        return system, plan_build, plan_query, outcome

    faulted, plan_build, plan_query, fault_outcome = faulted_run("faulted")
    _s2, _pb2, _pq2, rerun_outcome = faulted_run("faulted-rerun")

    if fault_outcome is not None and rerun_outcome is not None:
        if fault_outcome != rerun_outcome:
            violations.append(
                "determinism: same-seed rerun produced different results"
            )
        obs1 = _observables(faulted, [plan_build, plan_query])
        obs2 = _observables(_s2, [_pb2, _pq2])
        if obs1 != obs2:
            violations.append(
                "determinism: same-seed rerun produced different counters"
            )
        report["faulted"] = {
            "queries": fault_outcome["queries"],
            "degraded_queries": fault_outcome["degraded_queries"],
            "terms_failed": fault_outcome["terms_failed"],
            **obs1,
        }

    # -- 4. after faults clear: bit-identical to the baseline --------------
    if faulted is not None:
        cleared = plan_build.clear() + plan_query.clear()
        report["cleared_pending_faults"] = cleared
        clear_outcome = _replay(faulted, query_sets, violations, "after-clear")
        if clear_outcome["degraded_queries"]:
            violations.append(
                "after-clear: still degraded once the fault schedule is empty"
            )
        base_rankings = [p["rankings"] for p in base_outcome["phases"]]
        clear_rankings = [p["rankings"] for p in clear_outcome["phases"]]
        if base_rankings != clear_rankings:
            violations.append(
                "after-clear: rankings differ from the fault-free baseline "
                "(read-repair failed to heal the damage)"
            )
        report["after_clear"] = {
            "identical_to_baseline": base_rankings == clear_rankings,
            "resilience": faulted.index.store.mfile.resilience.as_dict(),
        }

    # -- 5. mid-build space exhaustion fails cleanly -----------------------
    plan_full = FaultPlan([FaultEvent("disk-full", at_op=max(1, build_allocs // 2))])
    try:
        _build(prepared, config_name, fault_plan=plan_full)
        violations.append("disk-full: build completed despite injected exhaustion")
        report["disk_full"] = "not raised"
    except DiskFullError:
        report["disk_full"] = "clean DiskFullError"
    except Exception as error:  # noqa: BLE001 — anything else is a dirty failure
        violations.append(
            f"disk-full: expected DiskFullError, got {type(error).__name__}: {error}"
        )
        report["disk_full"] = f"dirty: {type(error).__name__}"

    report["violations"] = violations
    report["ok"] = not violations
    return report


def _seeds(seed: int, sweep: int) -> List[int]:
    return list(range(seed, seed + max(1, sweep)))


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    seed: int = DEFAULT_SEED,
    sweep: int = 1,
) -> List[dict]:
    """Chaos-test one collection profile over ``sweep`` consecutive seeds."""
    workload = load_workload(profile_name, use_cache=False)
    return [
        chaos_profile(
            workload.prepared, workload.query_sets, run_seed, config_name
        )
        for run_seed in _seeds(seed, sweep)
    ]


def print_cell(name: str, cells: List[dict]) -> None:
    for cell in cells:
        status = "ok" if cell["ok"] else "FAILED"
        faulted = cell.get("faulted", {})
        res = faulted.get("resilience", {})
        print(
            f"{name} seed={cell['seed']}: {status}  "
            f"injected={sum(faulted.get('faults', {}).values())} "
            f"degraded={faulted.get('degraded_queries', '?')}/"
            f"{faulted.get('queries', '?')} "
            f"retries={res.get('retries', '?')} "
            f"repairs={res.get('read_repairs', '?')} "
            f"disk-full={cell.get('disk_full', '?')}"
        )
        for violation in cell["violations"]:
            print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="chaos",
    description=(
        "Seeded deterministic fault injection: no uncaught exceptions, "
        "same-seed determinism, bit-identical rankings after faults "
        "clear, clean mid-build disk-full failure."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--seed", "seed", DEFAULT_SEED, "base fault-schedule seed"),
        Option("--sweep", "sweep", 1,
               "number of consecutive seeds to test per profile"),
    ),
    header=lambda config, seed, sweep: {
        "config": config, "seeds": _seeds(seed, sweep),
    },
    cell_ok=lambda cells: all(cell["ok"] for cell in cells),
    has_baseline=False,
)
