"""Ingest gate: continuous mutation must be observationally exact.

The live-ingest subsystem's contract is the paper's incremental-update
claim made checkable: document adds and tombstone deletes interleave
with query traffic, and nothing a client observes may differ from a
stop-the-world rebuild.  For each collection profile this gate runs a
deterministic mixed read/write schedule — alternating ingest batches
and query waves through the serving layer — and checks, on simulated
time:

* **per-epoch bit-identity** — after every published epoch, every
  served TAAT ranking (and a pruned document-at-a-time spot check on
  the flat query subset) is bit-identical to a from-scratch
  :class:`~repro.inquery.IndexBuilder` rebuild of exactly that epoch's
  live corpus;
* **tombstone absence** — no deleted document ever appears in any
  ranking after the epoch that deleted it;
* **atomic cache epochs** — each ingest batch invalidates the result
  cache exactly once, and every batch seals its WAL epoch-commit
  marker;
* **concurrent compaction** — a mid-traffic compaction folds the
  tombstones out and reclaims bytes with *zero* observable drift: the
  post-compaction wave is answered entirely from the still-valid cache
  and its rankings equal the rebuild reference;
* **sharded routing** — the same schedule against an N=2, R=1 sharded
  system: mutations route to the owning shard's replica group, mirrors
  are verified byte-identical after every epoch, and rankings match
  the same *flat* rebuild (composing with the sharded-equals-flat
  invariant);
* **determinism** — two fresh builds through the same schedule produce
  byte-identical traces (rankings, epoch reports, latencies).

Everything is simulated and seeded, so the whole report is a pure
function of the code: ``--check`` gates every cell by exact equality
against the committed ``BENCH_ingest.json``.  Run it with
``python -m repro.bench ingest`` (see :mod:`repro.bench.gate` for the
flags and exit status shared by every gate).
"""

import json
from typing import Dict, List, Tuple

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.prepared import materialize
from ..core.stats import latency_summary
from ..inquery.daat import DocumentAtATimeEngine, daat_queries
from ..inquery.engine import DEFAULT_TOP_K
from ..live import LiveCorpus, reference_rankings
from ..serve import QueryService
from ..synth.traffic import TimedRequest
from .gate import Gate, Option

DEFAULT_CONFIG = "mneme-linked"
#: Queries per wave (every wave re-serves the same pool, so cache
#: behavior across epochs is part of the contract).
DEFAULT_QUERIES = 6
#: Ingest batches (= published epochs) per scenario.
DEFAULT_EPOCHS = 2
#: Documents added per batch; a third of the batch is deleted.
BATCH_ADDS = 12


def _schedule(
    corpus: LiveCorpus, epochs: int, batch: int
) -> List[Tuple[List[int], List[int], List[int]]]:
    """The mutation plan: per epoch, (add ids, delete ids, live ids).

    A pure function of the base corpus size, shared by every scenario
    in the profile — flat, sharded, and the determinism re-run — so
    the expensive per-epoch rebuild references are computed once.
    """
    live = set(corpus.base_ids)
    next_id = corpus.base_count
    plan = []
    for _ in range(epochs):
        add_ids = list(range(next_id + 1, next_id + batch + 1))
        next_id += batch
        delete_ids = sorted(live)[: batch // 3]
        live.update(add_ids)
        live.difference_update(delete_ids)
        plan.append((add_ids, delete_ids, sorted(live)))
    return plan


def _round_rankings(rankings: Dict[str, list]) -> dict:
    return {
        text: [[doc, round(belief, 12)] for doc, belief in ranking]
        for text, ranking in rankings.items()
    }


def _mixed_run(
    backend,
    corpus: LiveCorpus,
    plan,
    refs,
    queries: List[str],
    daat_pool: List[str],
) -> Tuple[dict, List[str], dict]:
    """One mixed read/write scenario; returns (cell, violations, trace)."""
    violations: List[str] = []
    service = QueryService(backend, engine="taat", workers=2)
    sharded = service.sharded
    label = "sharded" if sharded else "flat"
    latencies: List[float] = []
    trace: dict = {"epochs": []}
    ingest_wall_ms = 0.0
    docs_added = docs_deleted = 0
    wal_marked = True
    deleted_ever: set = set()
    nonempty_rankings = 0

    for step, (add_ids, delete_ids, _live_ids) in enumerate(plan):
        adds = [corpus.document(doc_id) for doc_id in add_ids]
        deletes = corpus.documents_for(delete_ids)
        invalidations_before = service.cache.stats.invalidations
        report = service.ingest(adds=adds, deletes=deletes)
        ingest_wall_ms += report.wall_ms
        docs_added += report.docs_added
        docs_deleted += report.docs_deleted
        wal_marked = wal_marked and report.wal_marked
        deleted_ever.update(delete_ids)
        if service.cache.stats.invalidations - invalidations_before != 1:
            violations.append(
                f"{label}: epoch {report.epoch} did not invalidate the "
                "cache exactly once"
            )
        if sharded and report.groups_verified != backend.n_shards:
            violations.append(
                f"{label}: epoch {report.epoch} verified "
                f"{report.groups_verified} replica groups, "
                f"expected {backend.n_shards}"
            )

        run = service.process(
            [TimedRequest(text=text, arrival_ms=0.0, seq=i)
             for i, text in enumerate(queries)],
            name=f"{label}-epoch-{report.epoch}",
        )
        latencies.extend(run.latencies_ms())
        reference = refs[step]["taat"]
        for row in run.served:
            nonempty_rankings += bool(row.result.ranking)
            if row.result.ranking != reference[row.text]:
                violations.append(
                    f"{label}: epoch {report.epoch} ranking for "
                    f"{row.text!r} differs from the rebuild"
                )
            if any(doc in deleted_ever for doc, _ in row.result.ranking):
                violations.append(
                    f"{label}: epoch {report.epoch} ranked a deleted "
                    f"document for {row.text!r}"
                )
        # Pruned document-at-a-time spot check against the *exhaustive*
        # rebuild: live pruning over tombstoned records must stay
        # admissible.
        if sharded:
            outcome = backend.scheduler(
                top_k=DEFAULT_TOP_K, engine="daat", prune="auto"
            ).run_wave(daat_pool)
            live_daat = {
                text: result.ranking
                for text, result in zip(daat_pool, outcome.results)
            }
        else:
            engine = DocumentAtATimeEngine(
                backend.index, top_k=DEFAULT_TOP_K, prune="auto",
            )
            live_daat = {
                text: engine.run_query(text).ranking for text in daat_pool
            }
        for text in daat_pool:
            if live_daat[text] != refs[step]["daat"][text]:
                violations.append(
                    f"{label}: epoch {report.epoch} pruned daat ranking "
                    f"for {text!r} differs from the exhaustive rebuild"
                )
        trace["epochs"].append({
            "epoch": report.epoch,
            "added": report.docs_added,
            "deleted": report.docs_deleted,
            "shards_touched": list(report.shards_touched),
            "wall_ms": round(report.wall_ms, 6),
            "rankings": _round_rankings(
                {row.text: row.result.ranking for row in run.served}
            ),
            "latencies_ms": [round(v, 6) for v in latencies[-len(queries):]],
        })

    # -- mid-traffic compaction: zero observable drift --------------------
    summary = service.compact()
    post = service.process(
        [TimedRequest(text=text, arrival_ms=0.0, seq=i)
         for i, text in enumerate(queries)],
        name=f"{label}-post-compaction",
    )
    reference = refs[len(plan) - 1]["taat"]
    if any(row.result.ranking != reference[row.text] for row in post.served):
        violations.append(f"{label}: compaction changed a served ranking")
    if post.hit_rate != 1.0:
        violations.append(
            f"{label}: compaction invalidated the cache (post-compaction "
            f"hit rate {post.hit_rate}, expected 1.0)"
        )
    if summary.tombstones_folded == 0:
        violations.append(f"{label}: compaction found no tombstones to fold")
    if summary.bytes_reclaimed <= 0:
        violations.append(f"{label}: compaction reclaimed nothing")
    if not wal_marked:
        violations.append(f"{label}: an epoch published without a WAL marker")
    if nonempty_rankings == 0:
        violations.append(
            f"{label}: every served ranking was empty — the identity "
            "checks are vacuous"
        )

    digest = latency_summary(latencies)
    cell = {
        "epochs": len(plan),
        "docs_added": docs_added,
        "docs_deleted": docs_deleted,
        "ingest_wall_ms": round(ingest_wall_ms, 4),
        "ingest_docs_per_s": round(
            (docs_added + docs_deleted) / ingest_wall_ms * 1000.0, 4
        ) if ingest_wall_ms > 0 else 0.0,
        "query_p50_ms": round(digest["p50_ms"], 4),
        "query_mean_ms": round(digest["mean_ms"], 4),
        "cache_invalidations": service.cache.stats.invalidations,
        "wal_marked": wal_marked,
        "compaction": {
            "tombstones_folded": summary.tombstones_folded,
            "records_rewritten": summary.records_rewritten,
            "bytes_reclaimed": summary.bytes_reclaimed,
            "segments_copied": summary.segments_copied,
            "post_compaction_hit_rate": round(post.hit_rate, 4),
        },
    }
    if sharded:
        cell["groups_verified_per_epoch"] = backend.n_shards
    trace["compaction"] = dict(cell["compaction"])
    return cell, violations, trace


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    n_queries: int = DEFAULT_QUERIES,
    epochs: int = DEFAULT_EPOCHS,
) -> dict:
    """The full live-ingest contract for one collection profile."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared = workload.prepared
    corpus = LiveCorpus(prepared.collection)
    query_set = workload.query_sets[0]
    queries = query_set.queries[:n_queries]
    daat_pool = daat_queries(query_set.queries)[: max(2, n_queries // 2)]
    # WAL on: ingest batches must seal epoch-commit markers.
    config = config_by_name(config_name, use_wal=True)

    plan = _schedule(corpus, epochs, BATCH_ADDS)
    # One rebuild reference per epoch, shared by every scenario (the
    # mutation schedule, hence the live corpus, is identical in all).
    refs = []
    for _add_ids, _delete_ids, live_ids in plan:
        documents = corpus.documents_for(live_ids)
        refs.append({
            "taat": reference_rankings(config, documents, queries),
            "daat": reference_rankings(
                config, documents, daat_pool, engine="daat"
            ),
        })

    flat_cell, flat_violations, flat_trace = _mixed_run(
        materialize(prepared, config), corpus, plan, refs, queries, daat_pool
    )
    violations.extend(flat_violations)

    sharded_cell, sharded_violations, _sharded_trace = _mixed_run(
        materialize(prepared, config, shards=2, replicas=1),
        corpus, plan, refs, queries, daat_pool,
    )
    violations.extend(sharded_violations)

    # -- determinism: the flat scenario again, from a fresh build ---------
    cell_b, violations_b, trace_b = _mixed_run(
        materialize(prepared, config), corpus, plan, refs, queries, daat_pool
    )
    violations.extend(violations_b)
    deterministic = (
        json.dumps([flat_cell, flat_trace], sort_keys=True)
        == json.dumps([cell_b, trace_b], sort_keys=True)
    )
    if not deterministic:
        violations.append(
            "determinism: two identical mixed read/write runs produced "
            "different traces"
        )

    return {
        "config": config_name,
        "queries": len(queries),
        "daat_queries": len(daat_pool),
        "flat": flat_cell,
        "sharded": sharded_cell,
        "deterministic": deterministic,
        "violations": violations,
        "ok": not violations,
    }


def print_cell(name: str, cell: dict) -> None:
    print(f"{name} ({cell['config']}, {cell['queries']} queries):")
    for label in ("flat", "sharded"):
        row = cell[label]
        print(
            f"  {label}: {row['epochs']} epochs, "
            f"+{row['docs_added']}/-{row['docs_deleted']} docs, "
            f"{row['ingest_docs_per_s']} docs/s ingest, "
            f"query p50 {row['query_p50_ms']} ms"
        )
        compaction = row["compaction"]
        print(
            f"    compaction: {compaction['tombstones_folded']} "
            f"tombstones folded, {compaction['bytes_reclaimed']} bytes "
            f"reclaimed, post-compaction hit rate "
            f"{compaction['post_compaction_hit_rate']}"
        )
    print(f"  trace deterministic: {cell['deterministic']}")
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="ingest",
    description=(
        "Mixed read/write serving on simulated time: deterministic "
        "ingest batches (adds + tombstone deletes) interleave with "
        "query waves, every served ranking per epoch is bit-identical "
        "to a stop-the-world rebuild of that epoch's corpus (flat and "
        "N=2/R=1 sharded, TAAT and pruned DAAT), each batch "
        "invalidates the result cache exactly once and seals a WAL "
        "epoch-commit marker, replica mirrors verify byte-identical "
        "after every epoch, and a mid-traffic compaction folds "
        "tombstones out with zero observable drift."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--queries", "n_queries", DEFAULT_QUERIES, "queries per wave"),
    ),
)
