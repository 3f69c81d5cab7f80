"""Real wall-clock regression gate: fast-path kernels vs. pure Python.

Everything else in :mod:`repro.bench` reports *simulated* time — the
paper's tables.  This module times the reproduction itself: how many
real seconds the index build, the term-at-a-time query runs, and the
document-at-a-time runs take with the vectorized kernels
(:mod:`repro.fastpath`) against the pure-Python reference path, while
asserting the two paths are observationally identical — same rankings,
same simulated wall/user/IO totals, same ``I``/``A``/``B`` counters,
same buffer hit statistics.  The fast path may only change how long the
experiment takes to run, never what it measures.

It doubles as a per-PR regression gate: every phase is timed over
repeated runs across all four paper collections, the medians and a
run-to-run noise bound are written to ``BENCH_wallclock.json``, and
``--check`` compares a fresh run against that committed baseline —
failing on any invariance violation or on a fast-path *speedup* that
drops out of the noise band.  Speedups (reference seconds over
fast-path seconds) are compared rather than absolute seconds so the
gate is meaningful across machines of different speeds.

Run it with ``python -m repro.bench wallclock [--repeats N]`` (or
``scripts/bench.sh --check`` for the gate; see :mod:`repro.bench.gate`
for the flags and exit status shared by every gate).
"""

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.config import config_by_name
from ..core.experiment import QUERY_SET_PROFILES
from ..core.metrics import RunMetrics, cold_start, measure_run
from ..core.prepared import materialize, prepare_collection
from ..core.stats import median_of, relative_spread
from ..fastpath import state as _fastpath
from ..inquery.daat import DocumentAtATimeEngine, daat_queries
from ..inquery.engine import DEFAULT_TOP_K, RetrievalEngine
from ..serve.termcache import TermCache
from ..synth import PROFILES, SyntheticCollection, generate_query_set
from .gate import Gate, Option

DEFAULT_CONFIG = "mneme-cache"
#: Timing repetitions per path (median reported).
DEFAULT_REPEATS = 3
#: Speedups may drop by this fraction before the gate fails, noise aside.
DEFAULT_MIN_BAND = 0.35
#: The noise band is this multiple of the recorded run-to-run spread.
DEFAULT_NOISE_FACTOR = 3.0


@dataclass
class PathRun:
    """Real seconds and observables of one pass over one profile."""

    phase_s: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, RunMetrics] = field(default_factory=dict)
    #: Per query set: (rankings, peak_resident, documents_scored, clock).
    daat_obs: Dict[str, Tuple] = field(default_factory=dict)
    #: Per query set: pruned-vs-exhaustive observables on the linked build.
    prune_obs: Dict[str, dict] = field(default_factory=dict)
    #: Per query set: term-cache-on observables on a repeat-heavy stream.
    termcache_obs: Dict[str, dict] = field(default_factory=dict)

    @property
    def end_to_end_s(self) -> float:
        return sum(self.phase_s.values())


def _run_path(
    collection: SyntheticCollection,
    query_sets,
    config_name: str,
    fast: bool,
) -> PathRun:
    """Time index build + query evaluation for one path.

    The one fast-path switch gates every kernel dispatch (codec, bulk
    encode, recount, engines), so the whole stack flips at once.
    """
    run = PathRun()
    with _fastpath.use_fastpath(fast):
        config = config_by_name(config_name)
        start = time.perf_counter()
        prepared = prepare_collection(collection)
        system = materialize(prepared, config)
        run.phase_s["build"] = time.perf_counter() - start
        for query_set in query_sets:
            start = time.perf_counter()
            metrics = measure_run(
                system, query_set.queries, query_set_name=query_set.name
            )
            run.phase_s[f"query:{query_set.name}"] = time.perf_counter() - start
            run.metrics[query_set.name] = metrics
        # Term cache on a repeat-heavy stream (two passes over
        # the query set): rankings must match the cache-off metrics run
        # on both passes, and the cache counters and simulated clock
        # must agree between the reference and fast paths.
        for query_set in query_sets:
            stream = list(query_set.queries) * 2
            cold_start(system)
            engine = RetrievalEngine(
                system.index, top_k=DEFAULT_TOP_K,
                use_reservation=config.use_reservation,
            )
            cache = TermCache(1 << 22)
            engine.term_cache = cache
            clock_start = system.clock.snapshot()
            start = time.perf_counter()
            results = engine.run_batch(stream)
            run.phase_s[f"termcache:{query_set.name}"] = (
                time.perf_counter() - start
            )
            elapsed = system.clock.since(clock_start)
            run.termcache_obs[query_set.name] = {
                "rankings": [r.ranking for r in results],
                "cache_off": [
                    r.ranking for r in run.metrics[query_set.name].results
                ] * 2,
                "counters": (
                    cache.stats.hits, cache.stats.misses,
                    cache.stats.evictions, cache.stats.bytes,
                ),
                "clock": (elapsed.wall_ms, elapsed.user_ms, elapsed.system_io_ms),
            }
        for query_set in query_sets:
            flat = daat_queries(query_set.queries)
            if not flat:
                continue
            cold_start(system)
            engine = DocumentAtATimeEngine(system.index, top_k=50)
            clock_start = system.clock.snapshot()
            start = time.perf_counter()
            results = engine.run_batch(flat)
            run.phase_s[f"daat:{query_set.name}"] = time.perf_counter() - start
            elapsed = system.clock.since(clock_start)
            run.daat_obs[query_set.name] = (
                [r.ranking for r in results],
                [r.peak_resident_bytes for r in results],
                [r.documents_scored for r in results],
                (elapsed.wall_ms, elapsed.user_ms, elapsed.system_io_ms),
            )
        # Dynamic pruning runs on the linked-record backend, where the
        # per-chunk max-tf sidecars make block skipping real.  The
        # exhaustive run on the same build is the invariance reference
        # and the denominator of the pruning speedup.
        linked = materialize(prepared, config_by_name("mneme-linked"))
        for query_set in query_sets:
            flat = daat_queries(query_set.queries)
            if not flat:
                continue
            cold_start(linked)
            exhaustive = DocumentAtATimeEngine(linked.index)
            start = time.perf_counter()
            base_results = exhaustive.run_batch(flat)
            exhaustive_s = time.perf_counter() - start
            cold_start(linked)
            pruner = DocumentAtATimeEngine(linked.index, prune="auto")
            clock_start = linked.clock.snapshot()
            start = time.perf_counter()
            results = pruner.run_batch(flat)
            run.phase_s[f"prune:{query_set.name}"] = time.perf_counter() - start
            elapsed = linked.clock.since(clock_start)
            run.prune_obs[query_set.name] = {
                "rankings": [r.ranking for r in results],
                "exhaustive_rankings": [r.ranking for r in base_results],
                "pruned": all(r.pruned for r in results),
                "exhaustive_s": exhaustive_s,
                "scored_exhaustive": sum(
                    r.documents_scored for r in base_results
                ),
                "counters": (
                    sum(r.documents_scored for r in results),
                    sum(r.documents_skipped for r in results),
                    sum(r.blocks_skipped for r in results),
                    sum(r.prune_threshold_updates for r in results),
                ),
                "clock": (elapsed.wall_ms, elapsed.user_ms, elapsed.system_io_ms),
            }
    return run


def _identical(ref: RunMetrics, fast: RunMetrics) -> Dict[str, bool]:
    """The invariance contract, checked term by term."""
    rankings = all(
        a.ranking == b.ranking and a.terms_looked_up == b.terms_looked_up
        for a, b in zip(ref.results, fast.results)
    ) and len(ref.results) == len(fast.results)
    clock = (
        ref.wall_s == fast.wall_s
        and ref.user_s == fast.user_s
        and ref.system_io_s == fast.system_io_s
    )
    io = (
        ref.io_inputs == fast.io_inputs
        and ref.file_accesses == fast.file_accesses
        and ref.record_lookups == fast.record_lookups
        and ref.bytes_from_file == fast.bytes_from_file
    )
    buffers = set(ref.buffer_stats) == set(fast.buffer_stats) and all(
        (s.refs, s.hits) == (fast.buffer_stats[k].refs, fast.buffer_stats[k].hits)
        for k, s in ref.buffer_stats.items()
    )
    return {
        "rankings": rankings,
        "simulated_clock": clock,
        "io_counters": io,
        "buffer_stats": buffers,
    }


def _daat_identical(ref_obs: Tuple, fast_obs: Tuple) -> Dict[str, bool]:
    ref_rank, ref_peak, ref_scored, ref_clock = ref_obs
    fast_rank, fast_peak, fast_scored, fast_clock = fast_obs
    return {
        "rankings": ref_rank == fast_rank,
        "observables": ref_peak == fast_peak and ref_scored == fast_scored,
        "simulated_clock": ref_clock == fast_clock,
    }


def _speedup(reference_s: float, fast_s: float) -> float:
    return reference_s / fast_s if fast_s > 0 else 0.0


#: Relative run-to-run spread: (max - min) / median.
_spread = relative_spread


def _phase_row(ref_times: List[float], fast_times: List[float]) -> dict:
    ref_med = median_of(ref_times)
    fast_med = median_of(fast_times)
    return {
        "reference_s": round(ref_med, 4),
        "fastpath_s": round(fast_med, 4),
        "speedup": round(_speedup(ref_med, fast_med), 2),
        "noise": round(max(_spread(ref_times), _spread(fast_times)), 3),
    }


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    repeats: int = DEFAULT_REPEATS,
) -> dict:
    """Benchmark one collection profile, both paths, all query sets."""
    profile = PROFILES[profile_name]
    collection = SyntheticCollection(profile)
    collection.flat_postings()  # synthesize outside the timed region
    query_sets = [
        generate_query_set(collection, query_profile)
        for query_profile in QUERY_SET_PROFILES[profile_name]
    ]

    reference = [
        _run_path(collection, query_sets, config_name, fast=False)
        for _ in range(repeats)
    ]
    fast = [
        _run_path(collection, query_sets, config_name, fast=True)
        for _ in range(repeats)
    ]

    phases: Dict[str, dict] = {}
    invariant = True
    for phase in reference[0].phase_s:
        row = _phase_row(
            [run.phase_s[phase] for run in reference],
            [run.phase_s[phase] for run in fast],
        )
        if phase.startswith("query:"):
            set_name = phase.split(":", 1)[1]
            checks = _identical(
                reference[0].metrics[set_name], fast[0].metrics[set_name]
            )
            row["queries"] = reference[0].metrics[set_name].queries
            row["identical"] = checks
            invariant = invariant and all(checks.values())
        elif phase.startswith("termcache:"):
            set_name = phase.split(":", 1)[1]
            ref_obs = reference[0].termcache_obs[set_name]
            fast_obs = fast[0].termcache_obs[set_name]
            checks = {
                # The cache contract: cache-on rankings equal cache-off
                # on both passes of the stream, on both paths.
                "rankings_vs_cache_off": (
                    ref_obs["rankings"] == ref_obs["cache_off"]
                    and fast_obs["rankings"] == fast_obs["cache_off"]
                ),
                "rankings": ref_obs["rankings"] == fast_obs["rankings"],
                "cache_counters": ref_obs["counters"] == fast_obs["counters"],
                "simulated_clock": ref_obs["clock"] == fast_obs["clock"],
            }
            row["queries"] = len(ref_obs["rankings"])
            row["identical"] = checks
            invariant = invariant and all(checks.values())
            hits, misses, evictions, resident = fast_obs["counters"]
            row["termcache"] = {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "resident_bytes": resident,
            }
        elif phase.startswith("daat:"):
            set_name = phase.split(":", 1)[1]
            checks = _daat_identical(
                reference[0].daat_obs[set_name], fast[0].daat_obs[set_name]
            )
            row["queries"] = len(reference[0].daat_obs[set_name][0])
            row["identical"] = checks
            invariant = invariant and all(checks.values())
        elif phase.startswith("prune:"):
            set_name = phase.split(":", 1)[1]
            ref_obs = reference[0].prune_obs[set_name]
            fast_obs = fast[0].prune_obs[set_name]
            checks = {
                # The pruning contract: pruned top-k equals exhaustive
                # top-k, beliefs and tie order included, on both paths.
                "rankings_vs_exhaustive": (
                    ref_obs["rankings"] == ref_obs["exhaustive_rankings"]
                    and fast_obs["rankings"] == fast_obs["exhaustive_rankings"]
                ),
                "rankings": ref_obs["rankings"] == fast_obs["rankings"],
                "prune_counters": ref_obs["counters"] == fast_obs["counters"],
                "simulated_clock": ref_obs["clock"] == fast_obs["clock"],
            }
            row["queries"] = len(ref_obs["rankings"])
            row["identical"] = checks
            invariant = invariant and all(checks.values())
            pruned_med = median_of(
                [run.phase_s[phase] for run in fast]
            )
            exhaustive_med = median_of(
                [run.prune_obs[set_name]["exhaustive_s"] for run in fast]
            )
            scored, skipped, blocks, updates = fast_obs["counters"]
            row["pruning"] = {
                "pruned": fast_obs["pruned"],
                "exhaustive_s": round(exhaustive_med, 4),
                # Real-seconds win of pruning over exhaustive DAAT on
                # the same linked build, both on the fast path.
                "speedup_vs_exhaustive": round(
                    _speedup(exhaustive_med, pruned_med), 2
                ),
                "documents_scored_exhaustive": fast_obs["scored_exhaustive"],
                "documents_scored": scored,
                "documents_skipped": skipped,
                "blocks_skipped": blocks,
                "prune_threshold_updates": updates,
            }
        phases[phase] = row

    ref_total = [run.end_to_end_s for run in reference]
    fast_total = [run.end_to_end_s for run in fast]
    return {
        "config": config_name,
        "phases": phases,
        "end_to_end": _phase_row(ref_total, fast_total),
        "invariant": invariant,
    }


def compare_cell(
    profile_name: str,
    cell: dict,
    base_cell: dict,
    min_band: float = DEFAULT_MIN_BAND,
    noise_factor: float = DEFAULT_NOISE_FACTOR,
) -> List[str]:
    """Regressions of one profile's cell against its baseline cell.

    A phase regresses when its fast-path speedup falls below the
    baseline speedup by more than the noise band — ``max(min_band,
    noise_factor * (baseline noise + current noise))``, as a fraction.
    Any invariance violation or missing phase is a failure outright.
    """
    failures: List[str] = []
    if not cell.get("invariant", False):
        failures.append(
            f"{profile_name}: fast path diverged from the reference"
        )
    for phase_name, base_row in base_cell.get("phases", {}).items():
        row = cell.get("phases", {}).get(phase_name)
        if row is None:
            failures.append(f"{profile_name}/{phase_name}: phase missing")
            continue
        identical = row.get("identical")
        if identical is not None and not all(identical.values()):
            broken = [k for k, ok in identical.items() if not ok]
            failures.append(
                f"{profile_name}/{phase_name}: not identical ({', '.join(broken)})"
            )
        band = max(
            min_band,
            noise_factor
            * (base_row.get("noise", 0.0) + row.get("noise", 0.0)),
        )
        floor = base_row["speedup"] / (1.0 + band)
        if base_row["speedup"] > 0 and row["speedup"] < floor:
            failures.append(
                f"{profile_name}/{phase_name}: speedup {row['speedup']:.2f}x "
                f"fell below {floor:.2f}x "
                f"(baseline {base_row['speedup']:.2f}x, band {band:.2f})"
            )
    return failures


def print_cell(name: str, cell: dict) -> None:
    total = cell["end_to_end"]
    print(f"{name} ({cell['config']}):")
    for phase_name, row in cell["phases"].items():
        ok = ""
        if "identical" in row:
            ok = (
                ", identical"
                if all(row["identical"].values())
                else ", MISMATCH"
            )
        print(
            f"  {phase_name:<16}{row['reference_s']:8.3f}s -> "
            f"{row['fastpath_s']:8.3f}s  ({row['speedup']:.2f}x"
            f"{ok}, noise {row['noise']:.3f})"
        )
        pruning = row.get("pruning")
        if pruning:
            print(
                f"  {'':<16}pruned {pruning['speedup_vs_exhaustive']:.2f}x "
                f"vs exhaustive {pruning['exhaustive_s']:.3f}s; scored "
                f"{pruning['documents_scored']}/"
                f"{pruning['documents_scored_exhaustive']} docs, skipped "
                f"{pruning['documents_skipped']} docs / "
                f"{pruning['blocks_skipped']} blocks"
            )
    print(
        f"  {'total':<16}{total['reference_s']:8.3f}s -> "
        f"{total['fastpath_s']:8.3f}s  ({total['speedup']:.2f}x)"
    )
    if not cell["invariant"]:
        print("  INVARIANCE VIOLATION — fast path diverged from reference")


GATE = Gate(
    name="wallclock",
    description=(
        "Real seconds for index build, term-at-a-time and "
        "document-at-a-time query evaluation, pure-Python reference "
        "vs. vectorized fast path.  Medians over repeated runs with "
        "a run-to-run noise bound; the two paths are asserted "
        "observationally identical (rankings, simulated clock, "
        "I/A/B, buffer hits).  The prune: phases additionally time "
        "dynamic top-k pruning against exhaustive document-at-a-time "
        "evaluation on the linked-record backend, asserting the "
        "pruned rankings bit-identical to exhaustive."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--repeats", "repeats", DEFAULT_REPEATS,
               "timing repetitions per path (median reported)"),
    ),
    check_options=(
        Option("--min-band", "min_band", DEFAULT_MIN_BAND,
               "minimum allowed fractional speedup drop (with --check)",
               type=float),
    ),
    compare_cell=compare_cell,
    header=lambda config, repeats: {
        "numpy": True, "repeats": repeats,
    },
    cell_ok=lambda cell: cell["invariant"],
    summary_ok=False,
)
