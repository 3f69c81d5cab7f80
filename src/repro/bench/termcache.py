"""Term-cache gate: record caching must be invisible and pay.

The term cache (:class:`~repro.serve.termcache.TermCache`) sits
between the block LRU buffers and the result cache: a byte-budgeted,
epoch-aware cache of fetched inverted-list records, per replica.  Its
contract has two halves and this gate checks both, per collection
profile, on simulated time:

* **invisibility** — with the cache attached, every ranking (beliefs,
  tie order), ``documents_scored``, ``documents_skipped`` and
  ``blocks_skipped`` is bit-identical to the cache-off run: on a
  repeat-heavy flat term-at-a-time stream, on pruned document-at-a-time
  evaluation, on an N=2/R=1 sharded run, and under a byte budget small
  enough to force evictions;
* **payoff** — the repeat-heavy stream hits above 50%, elides record
  lookups, and on the two TIPSTER profiles cuts the simulated
  per-query p50 to at most 0.8x the cache-off run;
* **freshness** — a mixed ingest/query schedule (document adds +
  tombstone deletes between query waves) serves *zero* stale results:
  every post-batch ranking equals a stop-the-world rebuild of exactly
  that epoch's corpus, and a post-compaction probe through the folded
  cache still matches;
* **discipline** — resident bytes never exceed the configured budget
  (peak included), and two fresh runs produce byte-identical reports,
  the per-operation hit/miss/eviction trace included.

Everything is seeded and simulated, so the whole report is a pure
function of the code: ``--check`` gates every cell by exact equality
against the committed ``BENCH_termcache.json``.  Run it with
``python -m repro.bench termcache`` (see :mod:`repro.bench.gate` for the
flags and exit status shared by every gate).
"""

import hashlib
import json
from typing import Dict, List

from ..core.config import config_by_name
from ..core.experiment import load_workload
from ..core.metrics import cold_start
from ..core.prepared import materialize
from ..core.stats import latency_summary
from ..inquery.daat import DocumentAtATimeEngine, daat_queries
from ..inquery.engine import DEFAULT_TOP_K, RetrievalEngine
from ..live import LiveCorpus, reference_rankings
from ..serve import QueryService
from ..serve.termcache import TermCache
from ..shard.metrics import measure_sharded_run
from .gate import Gate, Option
from .ingest import _schedule

DEFAULT_CONFIG = "mneme-linked"
#: Distinct queries in the pool; the stream repeats the pool.
DEFAULT_QUERIES = 6
#: Passes over the pool — the repeat-heavy profile the paper's
#: record-caching experiment models (Figure 2's skewed term reuse).
DEFAULT_PASSES = 3
#: Byte budget for the main phases: generous, so the hit rate is the
#: stream's repeat structure rather than an eviction artifact.
DEFAULT_BUDGET = 1 << 22
#: Floor for the eviction-phase budget (the phase sizes itself to half
#: the main run's peak so the working set provably cannot fit).
SMALL_BUDGET_FLOOR = 512
#: Profiles whose records are large enough that eliding the decode must
#: show up as a p50 win; the small profiles only assert invisibility.
P50_PROFILES = ("tipster1-s", "tipster-s")
P50_BAND = 0.8
MIN_HIT_RATE = 0.5
#: Mixed-schedule shape (adds per batch; a third deleted), as in the
#: ingest gate but with the term cache attached.
BATCH_ADDS = 9
DEFAULT_EPOCHS = 2


def _round_ranking(ranking) -> list:
    return [[doc, round(belief, 12)] for doc, belief in ranking]


def _trace_digest(cache: TermCache) -> dict:
    """The full hit/miss/eviction trace, digested for the report."""
    trace = list(cache.trace or [])
    payload = json.dumps(trace, sort_keys=True).encode()
    return {
        "operations": len(trace),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "head": [list(op) for op in trace[:8]],
    }


def _flat_run(
    prepared, config, stream: List[str], budget: int,
    max_entry_fraction: float = 0.25,
) -> dict:
    """One pass of the repeat-heavy stream through flat term-at-a-time."""
    system = materialize(prepared, config)
    cold_start(system)
    engine = RetrievalEngine(
        system.index, top_k=DEFAULT_TOP_K,
        use_reservation=config.use_reservation,
    )
    cache = (
        TermCache(budget, max_entry_fraction=max_entry_fraction,
                  record_trace=True)
        if budget > 0 else None
    )
    engine.term_cache = cache
    disk_before = system.fs.disk.stats.copy()
    lookups_before = system.index.store.record_lookups
    walls: List[float] = []
    rankings: List[list] = []
    for text in stream:
        clock_start = system.clock.snapshot()
        result = engine.run_query(text)
        walls.append(system.clock.since(clock_start).wall_ms)
        rankings.append(_round_ranking(result.ranking))
    return {
        "rankings": rankings,
        "walls_ms": walls,
        "p50_ms": latency_summary(walls)["p50_ms"],
        "io_inputs": (system.fs.disk.stats - disk_before).blocks_read,
        "record_lookups": system.index.store.record_lookups - lookups_before,
        "cache": cache,
    }


def _daat_run(
    prepared, config, stream: List[str], budget: int, prune: str
) -> dict:
    """The same stream through document-at-a-time (optionally pruned)."""
    system = materialize(prepared, config)
    cold_start(system)
    engine = DocumentAtATimeEngine(
        system.index, top_k=DEFAULT_TOP_K,
        prune=prune,
    )
    cache = TermCache(budget) if budget > 0 else None
    engine.term_cache = cache
    rankings, scored, skipped, blocks = [], [], [], []
    for text in stream:
        result = engine.run_query(text)
        rankings.append(_round_ranking(result.ranking))
        scored.append(result.documents_scored)
        skipped.append(result.documents_skipped)
        blocks.append(result.blocks_skipped)
    return {
        "rankings": rankings,
        "documents_scored": scored,
        "documents_skipped": skipped,
        "blocks_skipped": blocks,
        "cache": cache,
    }


def _check_budget(label: str, stats, budget: int, violations: List[str]):
    # A fleet's peak_bytes is its highest single cache's, so this holds
    # every cache to its own budget.
    if stats.peak_bytes > budget:
        violations.append(
            f"{label}: peak resident {stats.peak_bytes} bytes "
            f"exceeded the {budget}-byte budget"
        )


def _mixed_run(
    prepared, corpus: LiveCorpus, config, pool: List[str],
    budget: int, epochs: int,
) -> dict:
    """Ingest batches interleaved with cached query waves, vs rebuilds."""
    violations: List[str] = []
    backend = materialize(prepared, config)
    service = QueryService(backend, engine="taat", term_cache_bytes=budget)
    plan = _schedule(corpus, epochs, BATCH_ADDS)
    stale = 0
    epoch_rankings: List[dict] = []
    reference: Dict[str, list] = {}
    for add_ids, delete_ids, live_ids in plan:
        adds = [corpus.document(doc_id) for doc_id in add_ids]
        deletes = corpus.documents_for(delete_ids)
        report = service.ingest(adds=adds, deletes=deletes)
        reference = reference_rankings(
            config, corpus.documents_for(live_ids), pool
        )
        served = {}
        for text in pool:
            ranking = service.serve_one(text).ranking
            if ranking != reference[text]:
                stale += 1
            served[text] = _round_ranking(ranking)
        epoch_rankings.append({"epoch": report.epoch, "rankings": served})
    summary = service.compact()
    # Probe the *term cache itself* after compaction: the result cache
    # would answer the pool from its still-valid entries, so a fresh
    # engine sharing the service's term cache is the only way to prove
    # the folded entries still rank identically.
    post_ok = True
    caches = service.term_caches()
    engine = RetrievalEngine(
        backend.index, top_k=DEFAULT_TOP_K,
        use_reservation=config.use_reservation,
    )
    if caches:
        engine.term_cache = caches[0]
    for text in pool:
        if engine.run_query(text).ranking != reference[text]:
            post_ok = False
    stats = service.term_cache_stats()
    if stale:
        violations.append(
            f"mixed: {stale} served rankings differed from the epoch's "
            "stop-the-world rebuild (stale cache entries)"
        )
    if not post_ok:
        violations.append(
            "mixed: post-compaction probe through the folded term cache "
            "differed from the rebuild"
        )
    if stats.lookups == 0:
        violations.append("mixed: the term cache was never probed")
    for cache in caches:
        _check_budget("mixed", cache.stats, budget, violations)
    return {
        "cell": {
            "epochs": len(plan),
            "stale_rankings": stale,
            "post_compaction_identical": post_ok,
            "tombstones_folded": summary.tombstones_folded,
            "invalidated_terms": stats.invalidated_terms,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": round(stats.hit_rate, 4),
            "peak_bytes": stats.peak_bytes,
            "epoch_rankings": epoch_rankings,
        },
        "violations": violations,
    }


def bench_profile(
    profile_name: str,
    config_name: str = DEFAULT_CONFIG,
    n_queries: int = DEFAULT_QUERIES,
    passes: int = DEFAULT_PASSES,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """The full term-cache contract for one collection profile."""
    violations: List[str] = []
    workload = load_workload(profile_name, use_cache=False)
    prepared = workload.prepared
    corpus = LiveCorpus(prepared.collection)
    query_set = workload.query_sets[0]
    pool = query_set.queries[:n_queries]
    stream = pool * passes
    daat_pool = daat_queries(query_set.queries)[: max(2, n_queries // 2)]
    daat_stream = daat_pool * passes
    config = config_by_name(config_name)

    # -- flat term-at-a-time: invisibility + payoff -----------------------
    off = _flat_run(prepared, config, stream, 0)
    on = _flat_run(prepared, config, stream, budget)
    cache = on["cache"]
    if on["rankings"] != off["rankings"]:
        violations.append("flat: cache-on rankings differ from cache-off")
    if cache.stats.hit_rate <= MIN_HIT_RATE:
        violations.append(
            f"flat: hit rate {cache.stats.hit_rate:.3f} on the repeat-heavy "
            f"stream (needs > {MIN_HIT_RATE})"
        )
    if on["record_lookups"] >= off["record_lookups"]:
        violations.append(
            f"flat: cache elided no record lookups "
            f"({off['record_lookups']} -> {on['record_lookups']})"
        )
    _check_budget("flat", cache.stats, budget, violations)
    p50_ratio = (
        on["p50_ms"] / off["p50_ms"] if off["p50_ms"] > 0 else 1.0
    )
    if profile_name in P50_PROFILES and p50_ratio > P50_BAND:
        violations.append(
            f"flat: cache-on p50 is {p50_ratio:.3f}x cache-off "
            f"(needs <= {P50_BAND}) on {profile_name}"
        )
    flat_cell = {
        "p50_off_ms": round(off["p50_ms"], 6),
        "p50_on_ms": round(on["p50_ms"], 6),
        "p50_ratio": round(p50_ratio, 4),
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "hit_rate": round(cache.stats.hit_rate, 4),
        "io_inputs_off": off["io_inputs"],
        "io_inputs_on": on["io_inputs"],
        "record_lookups_off": off["record_lookups"],
        "record_lookups_on": on["record_lookups"],
        "peak_bytes": cache.stats.peak_bytes,
        "identical": on["rankings"] == off["rankings"],
        "trace": _trace_digest(cache),
    }

    # -- pruned document-at-a-time ----------------------------------------
    pruned_off = _daat_run(prepared, config, daat_stream, 0, "auto")
    pruned_on = _daat_run(prepared, config, daat_stream, budget, "auto")
    pruned_identical = all(
        pruned_on[key] == pruned_off[key]
        for key in ("rankings", "documents_scored", "documents_skipped",
                    "blocks_skipped")
    )
    if not pruned_identical:
        violations.append(
            "pruned: cache-on observables differ from cache-off"
        )
    if pruned_on["cache"].stats.hits == 0:
        violations.append("pruned: the block-tape cache never hit")
    _check_budget("pruned", pruned_on["cache"].stats, budget, violations)
    pruned_cell = {
        "identical": pruned_identical,
        "hits": pruned_on["cache"].stats.hits,
        "misses": pruned_on["cache"].stats.misses,
        "documents_skipped": sum(pruned_on["documents_skipped"]),
        "blocks_skipped": sum(pruned_on["blocks_skipped"]),
        "peak_bytes": pruned_on["cache"].stats.peak_bytes,
    }

    # -- sharded N=2 / R=1 -------------------------------------------------
    shard_off = measure_sharded_run(
        materialize(prepared, config, shards=2, replicas=1),
        stream, engine="taat",
    )
    shard_on = measure_sharded_run(
        materialize(prepared, config, shards=2, replicas=1),
        stream, engine="taat", term_cache_bytes=budget,
    )
    shard_identical = (
        [_round_ranking(r.ranking) for r in shard_off.results]
        == [_round_ranking(r.ranking) for r in shard_on.results]
    )
    if not shard_identical:
        violations.append("sharded: cache-on rankings differ from cache-off")
    shard_stats = shard_on.term_cache
    if shard_stats.hits == 0:
        violations.append("sharded: the per-replica caches never hit")
    _check_budget("sharded", shard_stats, budget, violations)
    shard_cell = {
        "identical": shard_identical,
        "hits": shard_stats.hits,
        "misses": shard_stats.misses,
        "record_lookups_off": shard_off.record_lookups,
        "record_lookups_on": shard_on.record_lookups,
        "resident_bytes": shard_stats.bytes,
    }

    # -- eviction pressure: a budget the working set cannot fit -----------
    # Half the main run's peak (itself deterministic), with oversize
    # rejection disabled so the pressure shows up as evictions.
    small_budget = max(SMALL_BUDGET_FLOOR, cache.stats.peak_bytes // 2)
    small = _flat_run(
        prepared, config, stream, small_budget, max_entry_fraction=1.0
    )
    if small["rankings"] != off["rankings"]:
        violations.append("small-budget: rankings differ from cache-off")
    if small["cache"].stats.evictions == 0:
        violations.append(
            f"small-budget: the {small_budget}-byte budget forced no "
            "evictions — the pressure phase is vacuous"
        )
    _check_budget("small-budget", small["cache"].stats, small_budget, violations)
    small_cell = {
        "budget_bytes": small_budget,
        "identical": small["rankings"] == off["rankings"],
        "evictions": small["cache"].stats.evictions,
        "rejected_oversize": small["cache"].stats.rejected_oversize,
        "hits": small["cache"].stats.hits,
        "peak_bytes": small["cache"].stats.peak_bytes,
    }

    # -- mixed ingest/query schedule: zero stale hits ----------------------
    mixed = _mixed_run(
        prepared, corpus, config_by_name(config_name, use_wal=True),
        pool, budget, DEFAULT_EPOCHS,
    )
    violations.extend(mixed["violations"])

    # -- determinism: the cache-on flat phase again, fresh build ----------
    again = _flat_run(prepared, config, stream, budget)
    deterministic = (
        json.dumps(
            [on["rankings"], on["walls_ms"], list(on["cache"].trace or [])],
            sort_keys=True,
        )
        == json.dumps(
            [again["rankings"], again["walls_ms"],
             list(again["cache"].trace or [])],
            sort_keys=True,
        )
    )
    if not deterministic:
        violations.append(
            "determinism: two identical cache-on runs produced different "
            "traces"
        )

    return {
        "config": config_name,
        "budget_bytes": budget,
        "queries": len(pool),
        "stream_len": len(stream),
        "flat": flat_cell,
        "pruned": pruned_cell,
        "sharded": shard_cell,
        "small_budget": small_cell,
        "mixed": mixed["cell"],
        "deterministic": deterministic,
        "violations": violations,
        "ok": not violations,
    }


def print_cell(name: str, cell: dict) -> None:
    flat = cell["flat"]
    print(f"{name} ({cell['config']}, {cell['stream_len']}-query stream):")
    print(
        f"  flat: p50 {flat['p50_off_ms']} -> {flat['p50_on_ms']} ms "
        f"({flat['p50_ratio']}x), hit rate {flat['hit_rate']}, "
        f"lookups {flat['record_lookups_off']} -> "
        f"{flat['record_lookups_on']}"
    )
    print(
        f"  pruned: identical={cell['pruned']['identical']} "
        f"hits={cell['pruned']['hits']}; "
        f"sharded: identical={cell['sharded']['identical']} "
        f"hits={cell['sharded']['hits']}; "
        f"evictions under pressure: {cell['small_budget']['evictions']}"
    )
    mixed = cell["mixed"]
    print(
        f"  mixed: {mixed['epochs']} epochs, "
        f"{mixed['stale_rankings']} stale, "
        f"{mixed['invalidated_terms']} terms invalidated, "
        f"post-compaction identical: "
        f"{mixed['post_compaction_identical']}"
    )
    print(f"  trace deterministic: {cell['deterministic']}")
    for violation in cell["violations"]:
        print(f"  VIOLATION: {violation}")


GATE = Gate(
    name="termcache",
    description=(
        "Decoded-postings term cache across the serving stack: on a "
        "repeat-heavy stream the cache-on run is bit-identical to "
        "cache-off (flat term-at-a-time, pruned document-at-a-time, "
        "N=2/R=1 sharded, and under eviction pressure), hits above "
        "50% and elides record lookups, cuts simulated p50 on the "
        "TIPSTER profiles, never exceeds its byte budget, serves "
        "zero stale rankings through a mixed ingest/query schedule "
        "(every post-batch wave equal to a stop-the-world rebuild, "
        "post-compaction probe included), and produces byte-identical "
        "traces across fresh runs."
    ),
    default_config=DEFAULT_CONFIG,
    bench_profile=bench_profile,
    print_cell=print_cell,
    options=(
        Option("--queries", "n_queries", DEFAULT_QUERIES,
               "distinct queries in the repeated pool"),
    ),
)
