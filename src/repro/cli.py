"""Command-line interface: ``python -m repro <command>``.

Everything the library can do from a terminal, one experiment per
invocation (the simulated machine lives in memory, so each run is
self-contained and deterministic):

* ``profiles`` — list the synthetic collection profiles and query sets;
* ``demo``     — build a system and run queries against it;
* ``compare``  — the paper's three-way storage comparison on one set;
* ``tables``   — regenerate the paper's tables (1-6);
* ``figures``  — regenerate the paper's figures (1-3);
* ``report``   — everything above in one text report;
* ``informetrics`` — Zipf/Heaps profile + pool-partition audit;
* ``evaluate`` — recall/precision of a query set against synthetic judgments;
* ``validate`` — integrity-check a freshly built system;
* ``wallclock`` ``shards`` ``serve`` ``saturate`` ``failover`` ``prune``
  ``ingest`` ``termcache`` ``chaos`` — the regression gates; everything
  after the gate name goes unchanged to the one driver in
  :mod:`repro.bench.gate` (shared flags, ``--check``, exit status).

``demo`` serves its queries through the
:class:`~repro.serve.service.QueryService` front door (admission waves,
result cache) and annotates each answer with its cache outcome.
``--shards N`` (with ``--partitioner``, ``--replicas``) serves from an
N-machine document-partitioned build instead of a single disk; rankings
are identical by construction, so the knob exists to demonstrate the
per-shard provenance it prints.  ``--rate`` spreads the demo queries
over a seeded Poisson arrival stream instead of one burst, and
``--deadline`` gives each request a relative deadline budget — requests
the service sheds are printed with their verdict instead of a ranking.
``--ingest N`` applies a live mutation batch first — N fresh documents
added, N//3 of the lowest live ids tombstone-deleted, one epoch
published — so the demo queries run against the mutated corpus.

A typed library error (:class:`~repro.errors.ReproError`) raised by a
command is printed as one ``error:`` line on stderr with exit status 2.
"""

import argparse
import sys
from typing import List, Optional

from .bench import (
    BenchRunner,
    figure1_size_distribution,
    figure2_term_use,
    figure3_buffer_sweep,
    render_plot,
    render_table,
    table1_collections,
    table2_buffers,
    table3_wall_clock,
    table4_system_io,
    table5_io_stats,
    table6_hit_rates,
)
from .bench.gate import GATES, main as gate_main
from .core import (
    check_system,
    config_by_name,
    improvement,
    load_workload,
    materialize,
    measure_run,
)
from .errors import ReproError
from .inquery import DEFAULT_TOP_K
from .serve import QueryService
from .synth import PROFILES

ALL_CONFIGS = ("btree", "mneme-nocache", "mneme-cache", "mneme-linked")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Brown/Callan/Moss/Croft (EDBT 1994): "
            "full-text IR over the Mneme persistent object store."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("profiles", help="list collection profiles and query sets")

    demo = commands.add_parser("demo", help="build a system and run queries")
    demo.add_argument("queries", nargs="+", help="structured queries to run")
    demo.add_argument("--profile", default="cacm-s", choices=sorted(PROFILES))
    demo.add_argument("--config", default="mneme-cache", choices=ALL_CONFIGS)
    demo.add_argument(
        "--top-k", type=int, default=10,
        help=f"documents to print per query (system default: {DEFAULT_TOP_K})",
    )
    demo.add_argument(
        "--daat", action="store_true",
        help="use the document-at-a-time engine (flat #sum/#wsum only)",
    )
    demo.add_argument(
        "--prune", default="off", choices=("off", "auto", "require"),
        help="dynamic top-k pruning (document-at-a-time only); rankings "
             "are bit-identical to exhaustive evaluation",
    )
    demo.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve from an N-shard document-partitioned build",
    )
    demo.add_argument(
        "--partitioner", default="hash", choices=("hash", "range"),
        help="document partitioning scheme for --shards",
    )
    demo.add_argument(
        "--replicas", type=int, default=0, metavar="R",
        help="with --shards: byte-identical mirror machines per shard "
             "(failover is automatic and observationally invisible)",
    )
    demo.add_argument(
        "--rate", type=float, default=0.0, metavar="QPS",
        help="Poisson arrival rate in simulated queries/s "
             "(default 0 = all queries arrive at t=0)",
    )
    demo.add_argument(
        "--deadline", type=float, default=0.0, metavar="MS",
        help="per-request deadline budget in simulated ms "
             "(default 0 = no deadline; expired requests are shed)",
    )
    demo.add_argument(
        "--ingest", type=int, default=0, metavar="N",
        help="apply a live ingest batch first: add N documents, "
             "tombstone-delete N//3, publish one epoch",
    )
    demo.add_argument(
        "--term-cache-kb", type=int, default=256, metavar="KB",
        help="term cache budget per replica in KB (0 disables; "
             "rankings are bit-identical either way)",
    )

    compare = commands.add_parser(
        "compare", help="run one query set on all three paper configurations"
    )
    compare.add_argument("--profile", default="legal-s", choices=sorted(PROFILES))
    compare.add_argument("--set", type=int, default=0, dest="set_index",
                         help="query set index within the collection")

    tables = commands.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("numbers", nargs="*", type=int, default=[],
                        help="table numbers (default: all of 1-6)")

    figures = commands.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("numbers", nargs="*", type=int, default=[],
                         help="figure numbers (default: all of 1-3)")

    report = commands.add_parser(
        "report", help="regenerate every table and figure into one text report"
    )
    report.add_argument("--output", default=None, help="also write the report here")
    report.add_argument("--skip-figure3", action="store_true",
                        help="skip the slow buffer-size sweep")

    informetrics = commands.add_parser(
        "informetrics", help="informetric profile and pool-partition audit"
    )
    informetrics.add_argument("--profile", default="legal-s", choices=sorted(PROFILES))

    evaluate = commands.add_parser(
        "evaluate", help="recall/precision of a query set (synthetic judgments)"
    )
    evaluate.add_argument("--profile", default="cacm-s", choices=sorted(PROFILES))
    evaluate.add_argument("--config", default="mneme-cache", choices=ALL_CONFIGS)
    evaluate.add_argument("--set", type=int, default=0, dest="set_index")
    evaluate.add_argument("--top-k", type=int, default=50)

    validate = commands.add_parser("validate", help="integrity-check a system")
    validate.add_argument("--profile", default="cacm-s", choices=sorted(PROFILES))
    validate.add_argument("--config", default="mneme-cache", choices=ALL_CONFIGS)
    validate.add_argument("--sample-every", type=int, default=1)

    # Listed for --help only: main() hands a gate's argv to the driver.
    for name, summary in GATES.items():
        commands.add_parser(name, help=f"gate: {summary}", add_help=False)

    return parser


def cmd_profiles() -> int:
    rows = []
    from .core import QUERY_SET_PROFILES

    for name, profile in PROFILES.items():
        sets = ", ".join(q.name for q in QUERY_SET_PROFILES.get(name, [])) or "-"
        rows.append((
            name, profile.models, profile.documents,
            profile.mean_doc_length, profile.vocab_size, sets,
        ))
    print(render_table(
        "Synthetic collection profiles",
        ("Profile", "Models", "Docs", "Mean len", "Vocab", "Query sets"),
        rows,
    ))
    return 0


def _ingest_batch(profile_name: str, pipeline, count: int):
    """The demo's deterministic mutation batch: +count docs, -count//3."""
    from .live import LiveCorpus
    from .synth import SyntheticCollection

    corpus = LiveCorpus(SyntheticCollection(PROFILES[profile_name]))
    adds = corpus.new_documents(count, after=corpus.base_count)
    live = sorted(pipeline.epochs.live_docs())
    deletes = corpus.documents_for(live[: count // 3])
    return adds, deletes


def _print_ingest_line(report) -> None:
    shards = ",".join(str(s) for s in report.shards_touched)
    print(
        f"Ingest: epoch {report.epoch} published "
        f"(+{report.docs_added}/-{report.docs_deleted} docs, "
        f"shards [{shards}], {report.wall_ms:.1f} simulated ms)"
    )


def _print_term_cache_line(stats) -> None:
    """One line of term cache accounting under a demo run."""
    if stats.lookups == 0:
        return
    print(
        f"\nTerm cache: {stats.hits}/{stats.lookups} hits "
        f"({stats.hit_rate:.0%}), {stats.bytes} bytes resident "
        f"(peak {stats.peak_bytes}), {stats.evictions} eviction(s)"
    )


def _print_prune_line(result) -> None:
    """One line of pruning provenance under a demo result."""
    if not getattr(result, "pruned", False):
        return
    print(
        f"  pruned: {result.documents_scored} doc(s) scored, "
        f"{result.documents_skipped} skipped, "
        f"{result.blocks_skipped} block(s) skipped, "
        f"{result.prune_threshold_updates} threshold update(s)"
    )


def cmd_demo(args) -> int:
    if args.ingest < 0:
        print("--ingest must be non-negative", file=sys.stderr)
        return 2
    from .synth.traffic import TrafficProfile, open_loop_requests

    # The demo queries in their given order, no repeats: one burst at
    # t=0, or a seeded Poisson spread so --deadline has queueing to
    # bite on.
    requests = open_loop_requests(args.queries, TrafficProfile(
        name="demo", n_requests=len(args.queries), rate_qps=args.rate,
        repeat_rate=0.0, deadline_ms=args.deadline,
    ))
    print(f"Building {args.profile!r} on {args.config!r} ...")
    workload = load_workload(args.profile)
    backend = materialize(
        workload.prepared, config_by_name(args.config),
        shards=args.shards or None, partitioner=args.partitioner,
        replicas=args.replicas,
    )
    service = QueryService(
        backend,
        engine="daat" if args.daat else "taat",
        top_k=args.top_k,
        prune=args.prune,
        term_cache_bytes=args.term_cache_kb * 1024,
    )
    if args.ingest:
        adds, deletes = _ingest_batch(
            args.profile, service.ingest_pipeline, args.ingest
        )
        _print_ingest_line(service.ingest(adds=adds, deletes=deletes))
    if args.replicas:
        print(
            f"Replicated x{args.replicas}: replica health "
            f"{backend.replica_health()}"
        )
    report = service.process(requests, name="demo")
    for row in report.served:
        print(f"\nQuery: {row.text}  [{row.outcome}, {row.latency_ms:.3f}ms]")
        if not row.result.ranking:
            print("  (no matching documents)")
        for rank, (doc_id, belief) in enumerate(row.result.ranking, start=1):
            home = (
                f"  (shard {backend.shard_of_doc(doc_id)})"
                if service.sharded else ""
            )
            print(f"  {rank:>3d}. doc {doc_id:<8d} belief={belief:.4f}{home}")
        if service.sharded:
            contributions = ", ".join(
                f"{shard}:{count}"
                for shard, count in sorted(row.result.shard_contributions.items())
            )
            print(f"  top-{args.top_k} contributions by shard: {contributions}")
        _print_prune_line(row.result)
    for row in report.shed:
        print(
            f"\nQuery: {row.text}  [SHED: {row.reason} at "
            f"{row.shed_ms:.3f}ms -> {row.error}]"
        )
    if service.cache is not None:
        stats = service.cache.stats
        print(
            f"\nService: {report.waves} wave(s), result cache "
            f"{stats.hits}/{stats.lookups} hits "
            f"({stats.hit_rate:.0%}), "
            f"{len(service.cache)} entrie(s) resident"
        )
    _print_term_cache_line(service.term_cache_stats())
    if report.shed:
        print(
            f"Shed {len(report.shed)}/{report.offered} request(s) "
            f"({report.shed_fraction:.0%})"
        )
    return 0


def cmd_compare(args) -> int:
    workload = load_workload(args.profile)
    if not 0 <= args.set_index < len(workload.query_sets):
        print(f"no query set {args.set_index} in {args.profile!r}", file=sys.stderr)
        return 2
    query_set = workload.query_sets[args.set_index]
    rows = []
    baseline = None
    for name in ("btree", "mneme-nocache", "mneme-cache"):
        system = materialize(workload.prepared, config_by_name(name))
        metrics = measure_run(system, query_set.queries, query_set.name)
        if baseline is None:
            baseline = metrics
        rows.append((
            name,
            round(metrics.wall_s, 2),
            round(metrics.system_io_s, 2),
            metrics.io_inputs,
            round(metrics.accesses_per_lookup, 2),
            round(metrics.kbytes_from_file),
            f"{improvement(baseline.system_io_s, metrics.system_io_s):.0%}",
        ))
    print(render_table(
        f"Storage comparison: {args.profile} / {query_set.name} "
        f"({len(query_set)} queries)",
        ("Configuration", "Wall (s)", "Sys+I/O (s)", "I", "A", "B (KB)",
         "Sys+I/O improvement"),
        rows,
    ))
    return 0


def cmd_tables(numbers: List[int]) -> int:
    wanted = numbers or [1, 2, 3, 4, 5, 6]
    runner = BenchRunner()
    builders = {
        1: ("Table 1: Document collection statistics (KB)", table1_collections),
        2: ("Table 2: Mneme buffer sizes (KB)", table2_buffers),
        3: ("Table 3: Wall-clock times (simulated s)", table3_wall_clock),
        4: ("Table 4: System CPU plus I/O times (simulated s)", table4_system_io),
        5: ("Table 5: I/O statistics", table5_io_stats),
        6: ("Table 6: Buffer hit rates", table6_hit_rates),
    }
    for number in wanted:
        if number not in builders:
            print(f"no table {number} in the paper", file=sys.stderr)
            return 2
        title, builder = builders[number]
        headers, rows = builder(runner)
        print(render_table(title, headers, rows))
    return 0


def cmd_figures(numbers: List[int]) -> int:
    wanted = numbers or [1, 2, 3]
    runner = BenchRunner()
    for number in wanted:
        if number == 1:
            prepared = runner.workload("legal-s").prepared
            xs, series = figure1_size_distribution(prepared)
            print(render_plot(
                "Figure 1: Cumulative distribution of inverted list sizes (Legal)",
                xs, series, x_label="record size (bytes)", log_x=True,
            ))
        elif number == 2:
            workload = runner.workload("legal-s")
            points = figure2_term_use(workload.prepared, workload.query_sets[1])
            print(render_plot(
                "Figure 2: Frequency of use of inverted list sizes (Legal QS2)",
                [float(s) for s, _u in points],
                {"uses": [float(u) for _s, u in points]},
                x_label="record size (bytes)", log_x=True,
            ))
        elif number == 3:
            sizes, rates = figure3_buffer_sweep(runner, "tipster-s")
            print(render_plot(
                "Figure 3: Large buffer hit rate vs size (TIPSTER QS1)",
                [s / 1e6 for s in sizes], {"hit rate": rates},
                x_label="buffer size (millions of bytes)",
            ))
        else:
            print(f"no figure {number} in the paper", file=sys.stderr)
            return 2
    return 0


def cmd_informetrics(args) -> int:
    from .synth import partition_report, profile_collection, suggest_small_threshold

    workload = load_workload(args.profile)
    collection = workload.prepared.collection
    profile = profile_collection(collection)
    print(render_table(
        f"Informetric profile: {args.profile}",
        ("Measure", "Value"),
        [
            ("tokens", profile.tokens),
            ("vocabulary", profile.vocabulary),
            ("singleton terms", f"{profile.singleton_fraction:.0%}"),
            ("terms with <= 2 occurrences", f"{profile.doubleton_fraction:.0%}"),
            ("top 1% token mass", f"{profile.top_percent_mass:.0%}"),
            ("Zipf-Mandelbrot s", round(profile.zipf_s, 2)),
            ("Zipf-Mandelbrot q", round(profile.zipf_q, 1)),
            ("Heaps k", round(profile.heaps_k, 2)),
            ("Heaps beta", round(profile.heaps_beta, 2)),
        ],
    ))
    sizes = workload.prepared.stats.record_sizes
    suggested = suggest_small_threshold(sizes)
    report = partition_report(sizes, 12, 4096)
    rows = [
        (name, row["records"], f"{row['record_share']:.0%}",
         row["bytes"], f"{row['byte_share']:.0%}")
        for name, row in report.items()
    ]
    print(render_table(
        "Pool partition audit (paper thresholds: 12 B / 4 KB)",
        ("Pool", "Records", "Share", "Bytes", "Share"),
        rows,
        note=f"Data-driven small-object boundary (50th pct): {suggested} bytes.",
    ))
    return 0


def cmd_evaluate(args) -> int:
    from .inquery import evaluate_run
    from .synth import relevance_from_postings

    workload = load_workload(args.profile)
    if not 0 <= args.set_index < len(workload.query_sets):
        print(f"no query set {args.set_index} in {args.profile!r}", file=sys.stderr)
        return 2
    query_set = workload.query_sets[args.set_index]
    system = materialize(workload.prepared, config_by_name(args.config))
    service = QueryService(system, top_k=args.top_k)
    results = [service.serve_one(query) for query in query_set.queries]
    relevance = relevance_from_postings(
        query_set.term_ranks, workload.prepared.docs_of_rank
    )
    evaluation = evaluate_run([r.doc_ids() for r in results], relevance)
    print(render_table(
        f"Retrieval evaluation: {args.profile} / {query_set.name} on {args.config}",
        ("Measure", "Value"),
        [
            ("judged queries", evaluation.queries),
            ("mean average precision", round(evaluation.mean_average_precision, 4)),
            ("mean R-precision", round(evaluation.mean_r_precision, 4)),
        ],
        note="Judgments are synthetic (term-overlap); absolute values are not "
             "comparable to TREC numbers, but they are identical across "
             "storage configurations, the paper's premise.",
    ))
    interp_rows = [
        (f"{i / 10:.1f}", round(p, 3))
        for i, p in enumerate(evaluation.mean_interpolated)
    ]
    print(render_table(
        "Interpolated precision at the 11 standard recall points",
        ("Recall", "Precision"),
        interp_rows,
    ))
    return 0


def cmd_validate(args) -> int:
    print(f"Building {args.profile!r} on {args.config!r} ...")
    workload = load_workload(args.profile)
    system = materialize(workload.prepared, config_by_name(args.config))
    report = check_system(system.index, sample_every=args.sample_every)
    print(f"{report.checks} checks run, {len(report.issues)} issue(s).")
    for issue in report.issues[:50]:
        print(f"  {issue}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in GATES:
        return gate_main(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "profiles":
            return cmd_profiles()
        if args.command == "demo":
            return cmd_demo(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "tables":
            return cmd_tables(args.numbers)
        if args.command == "figures":
            return cmd_figures(args.numbers)
        if args.command == "report":
            from .bench import write_full_report

            text = write_full_report(
                BenchRunner(),
                path=args.output,
                include_figure3=not args.skip_figure3,
            )
            print(text)
            return 0
        if args.command == "informetrics":
            return cmd_informetrics(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "validate":
            return cmd_validate(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
