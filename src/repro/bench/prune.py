"""Dynamic-pruning invariance and effect gate.

The pruning engine's whole contract is "less work, same answer".  For
each collection profile this benchmark checks both halves on the
linked-record config:

* **invariance** — for every query set's flat document-at-a-time
  subset, the pruned engine's top-k (``prune="auto"``) must equal
  exhaustive DAAT tuple for tuple: same document ids, bit-identical
  beliefs, same tie-break order.  Any difference is a violation.
* **engagement** — ``auto`` may fall back to exhaustive when no safe
  bound exists, so a silent no-op would pass invariance trivially; the
  gate requires that pruning actually engaged and that
  ``documents_scored`` shrank on every profile.  The TIPSTER profiles
  additionally gate the reduction factor
  (``--min-speedup``, default 1.5x fewer documents scored).
* **serve composition** — a pruned :class:`~repro.serve.QueryService`
  (result cache on) serves every flat query twice: each served ranking
  must equal a fresh exhaustive evaluation, and the repeats must hit
  the cache — pruned and exhaustive results share cache entries
  because they are bit-identical.

The wall-clock side of the story (the ``prune:`` phase and its
reference-vs-fastpath speedup) lives in :mod:`repro.bench.wallclock`;
this gate is about correctness and the work counters, so its verdicts
are exact, not statistical.

``--check`` gates every cell by exact equality against the committed
``BENCH_prune.json``.  Run it with ``python -m repro.bench prune`` (see
:mod:`repro.bench.gate` for the flags and exit status shared by every
gate).
"""

from typing import List

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.metrics import cold_start
from ..core.prepared import materialize
from ..inquery.daat import DocumentAtATimeEngine, daat_queries
from ..inquery.engine import DEFAULT_TOP_K
from ..serve import QueryService
from ..synth.traffic import TimedRequest
from .gate import Gate, Option

DEFAULT_CONFIG = "mneme-linked"
DEFAULT_MIN_REDUCTION = 1.5
#: Profiles the documents-scored reduction floor applies to (the small
#: collections keep the invariance checks; their candidate sets are too
#: small for a stable reduction ratio).
GATED_PROFILES = ("tipster1-s", "tipster-s")


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    top_k: int = DEFAULT_TOP_K,
    min_reduction: float = DEFAULT_MIN_REDUCTION,
) -> dict:
    """Invariance + effect + serve composition for one collection."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared, query_sets = workload.prepared, workload.query_sets
    config = config_by_name(config_name)
    system = materialize(prepared, config)

    cell: dict = {"config": config_name, "top_k": top_k, "query_sets": {}}
    total_exhaustive = 0
    total_pruned = 0
    pruned_queries = 0
    flat_queries: List[str] = []
    for query_set in query_sets:
        flat = daat_queries(query_set.queries)
        if not flat:
            continue
        flat_queries.extend(flat)
        cold_start(system)
        exhaustive = DocumentAtATimeEngine(system.index, top_k=top_k)
        base = exhaustive.run_batch(flat)
        cold_start(system)
        pruner = DocumentAtATimeEngine(system.index, top_k=top_k, prune="auto")
        results = pruner.run_batch(flat)
        if [r.ranking for r in results] != [r.ranking for r in base]:
            violations.append(
                f"{query_set.name}: pruned top-{top_k} differs from "
                "exhaustive evaluation"
            )
        scored_exhaustive = sum(r.documents_scored for r in base)
        scored = sum(r.documents_scored for r in results)
        engaged = sum(1 for r in results if r.pruned)
        total_exhaustive += scored_exhaustive
        total_pruned += scored
        pruned_queries += engaged
        cell["query_sets"][query_set.name] = {
            "queries": len(flat),
            "pruned_queries": engaged,
            "documents_scored_exhaustive": scored_exhaustive,
            "documents_scored": scored,
            "documents_skipped": sum(r.documents_skipped for r in results),
            "blocks_skipped": sum(r.blocks_skipped for r in results),
            "prune_threshold_updates": sum(
                r.prune_threshold_updates for r in results
            ),
        }

    if pruned_queries == 0:
        violations.append("no query engaged pruning (auto always fell back)")
    if total_pruned >= total_exhaustive:
        violations.append(
            f"documents_scored not reduced: {total_pruned} pruned vs "
            f"{total_exhaustive} exhaustive"
        )
    reduction = (
        total_exhaustive / total_pruned if total_pruned else float("inf")
    )
    cell["documents_scored_exhaustive"] = total_exhaustive
    cell["documents_scored"] = total_pruned
    cell["documents_scored_reduction"] = round(reduction, 2)
    if profile_name in GATED_PROFILES and reduction < min_reduction:
        violations.append(
            f"documents-scored reduction {reduction:.2f}x is below the "
            f"{min_reduction:.2f}x floor"
        )

    # -- serve composition: pruned service, shared cache, doubled load ----
    if flat_queries:
        reference = DocumentAtATimeEngine(
            materialize(prepared, config).index, top_k=top_k
        )
        expected = {
            text: result.ranking
            for text, result in zip(
                flat_queries, reference.run_batch(flat_queries)
            )
        }
        service = QueryService(
            materialize(prepared, config), engine="daat",
            top_k=top_k, prune="auto",
        )
        requests = [
            TimedRequest(text=text, arrival_ms=float(i))
            for i, text in enumerate(flat_queries * 2)
        ]
        report = service.process(requests, name=f"{profile_name}-prune")
        mismatched = sum(
            1 for row in report.served
            if row.result.ranking != expected[row.text]
        )
        if mismatched:
            violations.append(
                f"serve: {mismatched} served result(s) differ from fresh "
                "exhaustive evaluation"
            )
        if report.hit_rate <= 0.0:
            violations.append(
                "serve: repeated queries never hit the result cache"
            )
        cell["serve"] = {
            "requests": len(requests),
            "hit_rate": round(report.hit_rate, 3),
            "mismatched": mismatched,
        }
        service.close()

    cell["violations"] = violations
    cell["ok"] = not violations
    return cell


def print_cell(name: str, cell: dict) -> None:
    status = "ok" if cell["ok"] else "FAIL"
    print(
        f"{name} ({cell['config']}, top-{cell['top_k']}): {status}  "
        f"scored {cell['documents_scored']} vs "
        f"{cell['documents_scored_exhaustive']} exhaustive "
        f"({cell['documents_scored_reduction']}x)"
        + (
            f", serve hit rate {cell['serve']['hit_rate']}"
            if "serve" in cell else ""
        )
    )
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="prune",
    description=(
        "Dynamic-pruning gate: pruned top-k bit-identical to "
        "exhaustive DAAT on every query set, pruning actually "
        "engaged with documents_scored reduced (floor gated on the "
        "TIPSTER profiles), and a pruned cached service serving "
        "results indistinguishable from fresh exhaustive evaluation."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--top-k", "top_k", DEFAULT_TOP_K, "ranking depth"),
        Option("--min-speedup", "min_reduction", DEFAULT_MIN_REDUCTION,
               "documents-scored reduction floor on the TIPSTER profiles",
               type=float),
    ),
    header=lambda config, top_k, min_reduction: {
        "config": config, "top_k": top_k, "min_reduction": min_reduction,
    },
)
