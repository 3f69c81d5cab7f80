"""Metric names, units, directions and regression bounds — one table each.

``BENCHMARK.json`` repeats these for the driver; ``tests/test_contract.py``
asserts the two agree, and ``run.py`` prints exactly these names.

An *exact* metric is a pure function of the code and the seed (simulated
clock, platter bytes): two runs of one commit on one seed must print the
same digits, and ``--selfcheck`` fails otherwise.  Its ``bound`` still
exists because the driver compares medians over *different* seeds.
"""

from dataclasses import dataclass
from typing import List

#: Seconds of measured replay per run (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 10


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str      #: "lower" | "higher"
    bound: float     #: share of the parent's median it may worsen by
    exact: bool      #: same seed, same commit => same digits


#: Bounds are set from the spread *across seeds* (first to third quartile
#: of ten seeds, as a share of the median), which the driver holds every
#: metric to: at least three times the widest spread measured on any
#: workload, capped at the contract's 0.25.  See README.md, "Bounds".
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, False),
    EndToEnd("real_qps", "req/s", "higher", 0.25, False),
    EndToEnd("real_p50_ms", "ms", "lower", 0.25, False),
    EndToEnd("real_p95_ms", "ms", "lower", 0.25, False),
    EndToEnd("sim_p50_ms", "sim_ms", "lower", 0.25, True),
    EndToEnd("sim_p95_ms", "sim_ms", "lower", 0.25, True),
    EndToEnd("sim_sysio_ms_per_query", "sim_ms", "lower", 0.25, True),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.12, False),
    EndToEnd("platter_bytes_per_posting", "bytes", "lower", 0.12, True),
]


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str


def _layer(prefix: str, *rows) -> List[PerLayer]:
    return [PerLayer(f"{prefix}.{name}", unit, better) for name, unit, better in rows]


PER_LAYER: List[PerLayer] = [
    PerLayer("synth.generate_s", "s", "lower"),
    PerLayer("core.prepared.prepare_s", "s", "lower"),
    PerLayer("core.prepared.materialize_s", "s", "lower"),
    *_layer("inquery.query",
            ("self_ms", "ms", "lower"), ("nodes_per_req", "count", "lower")),
    *_layer("serve.service",
            ("self_ms", "ms", "lower"), ("waves", "count", "lower"),
            ("evaluated_per_req", "count", "lower"),
            ("shared_in_wave", "count", "higher")),
    *_layer("serve.cache",
            ("self_ms", "ms", "lower"), ("hit_rate", "fraction", "higher"),
            ("evictions", "count", "lower"), ("invalidations", "count", "lower")),
    *_layer("serve.termcache",
            ("self_ms", "ms", "lower"), ("hit_rate", "fraction", "higher"),
            ("evictions", "count", "lower"), ("peak_bytes", "bytes", "lower"),
            ("invalidated_terms", "count", "lower")),
    *_layer("shard.scheduler",
            ("self_ms", "ms", "lower"), ("barriers_per_req", "count", "lower"),
            ("shard_skew", "ratio", "lower"),
            ("worker_busy_fraction", "fraction", "higher")),
    *_layer("inquery.engine",
            ("self_ms", "ms", "lower"), ("calls_per_req", "count", "lower")),
    *_layer("inquery.daat",
            ("self_ms", "ms", "lower"),
            ("documents_scored_per_req", "count", "lower"),
            ("peak_resident_bytes", "bytes", "lower")),
    *_layer("fastpath.prune",
            ("self_ms", "ms", "lower"), ("scored_fraction", "fraction", "lower"),
            ("documents_skipped_per_req", "count", "higher"),
            ("blocks_skipped_per_req", "count", "higher"),
            ("threshold_updates_per_req", "count", "lower")),
    *_layer("fastpath.codec",
            ("decode_self_ms", "ms", "lower"),
            ("decode_calls_per_req", "count", "lower"),
            ("decoded_bytes_per_req", "bytes", "lower")),
    *_layer("inquery.invfile",
            ("fetch_self_ms", "ms", "lower"),
            ("record_lookups_per_req", "count", "lower"),
            ("write_self_ms", "ms", "lower")),
    *_layer("mneme.store",
            ("self_ms", "ms", "lower"), ("accesses_per_lookup", "count", "lower")),
    *_layer("mneme.buffers",
            ("hit_rate.small", "fraction", "higher"),
            ("hit_rate.medium", "fraction", "higher"),
            ("hit_rate.large", "fraction", "higher"),
            ("evictions", "count", "lower")),
    PerLayer("mneme.txn.wal_bytes_per_doc", "bytes", "lower"),
    *_layer("simdisk.filesystem",
            ("self_ms", "ms", "lower"), ("kb_read_per_req", "KB", "lower"),
            ("cache_hit_rate", "fraction", "higher")),
    *_layer("simdisk.disk",
            ("self_ms", "ms", "lower"), ("blocks_read_per_req", "count", "lower"),
            ("blocks_written_per_req", "count", "lower"),
            ("random_read_fraction", "fraction", "lower")),
    *_layer("live.ingest",
            ("apply_self_ms_per_doc", "ms", "lower"),
            ("real_docs_per_s", "1/s", "higher"),
            ("sim_docs_per_s", "1/s", "higher"), ("compact_s", "s", "lower"),
            ("tombstones_folded", "count", "higher"),
            ("bytes_reclaimed", "bytes", "higher")),
    PerLayer("trace.overhead_ratio", "ratio", "lower"),
    PerLayer("trace.unattributed_fraction", "fraction", "lower"),
    PerLayer("real_pass_spread", "fraction", "lower"),
]
