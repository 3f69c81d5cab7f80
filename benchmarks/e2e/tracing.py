"""Per-layer tracing from outside the program: spans by attribute patching.

For one extra *traced* pass the public entry points in :data:`TARGETS`
are wrapped at run time (no edit under ``src/``).  A span records its
name, start, end, the span that caused it and the call (request wave) it
belongs to; spans stay in memory until the run ends.  A layer's **self
time** is its spans' duration minus the part their child spans cover.

End-to-end numbers never come from a traced pass; the ratio between the
traced pass and the fastest untraced one is reported as
``trace.overhead_ratio``.

(The module is ``tracing`` rather than ``trace`` because the benchmark
directory is on ``sys.path`` and must not shadow the standard library.)
"""

import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.inquery.query import count_nodes, parse_query

from harness import Measurement, machines, min_over_passes, pass_spread

#: (span name, "module:qualified.name", self-time metric the span feeds)
TARGETS: List[Tuple[str, str, Optional[str]]] = [
    ("inquery.query.parse_query", "repro.inquery.query:parse_query",
     "inquery.query.self_ms"),
    ("inquery.query.normalize_tree", "repro.inquery.normalize:normalize_tree",
     "inquery.query.self_ms"),
    ("inquery.query.render_canonical", "repro.inquery.normalize:render_canonical",
     "inquery.query.self_ms"),
    ("serve.service.process", "repro.serve.service:QueryService.process",
     "serve.service.self_ms"),
    ("serve.service.ingest", "repro.serve.service:QueryService.ingest",
     "serve.service.self_ms"),
    ("serve.service.compact", "repro.serve.service:QueryService.compact",
     "serve.service.self_ms"),
    ("serve.cache.get", "repro.serve.cache:ResultCache.get", "serve.cache.self_ms"),
    ("serve.cache.put", "repro.serve.cache:ResultCache.put", "serve.cache.self_ms"),
    ("serve.cache.invalidate", "repro.serve.cache:ResultCache.invalidate",
     "serve.cache.self_ms"),
    ("serve.termcache.get", "repro.serve.termcache:TermCache.get",
     "serve.termcache.self_ms"),
    ("serve.termcache.put", "repro.serve.termcache:TermCache.put",
     "serve.termcache.self_ms"),
    ("serve.termcache.invalidate_terms",
     "repro.serve.termcache:TermCache.invalidate_terms", "serve.termcache.self_ms"),
    ("shard.scheduler.run_wave", "repro.shard.scheduler:ShardScheduler.run_wave",
     "shard.scheduler.self_ms"),
    # The sharded TAAT engine: each shard's two whole-wave tasks run on
    # the scheduler's worker threads.
    ("shard.taat.collect_many", "repro.shard.taat:ShardTaatRunner.collect_many",
     "inquery.engine.self_ms"),
    ("shard.taat.score_many", "repro.shard.taat:ShardTaatRunner.score_many",
     "inquery.engine.self_ms"),
    ("inquery.engine.run_query", "repro.inquery.engine:RetrievalEngine.run_query",
     "inquery.engine.self_ms"),
    ("inquery.daat.run_query", "repro.inquery.daat:DocumentAtATimeEngine.run_query",
     "inquery.daat.self_ms"),
    ("inquery.daat.score_streams", "repro.fastpath.daat:score_streams",
     "inquery.daat.self_ms"),
    ("fastpath.prune.run_pruned", "repro.fastpath.prune:run_pruned",
     "fastpath.prune.self_ms"),
    ("fastpath.codec.decode_record_arrays",
     "repro.fastpath.codec:decode_record_arrays", "fastpath.codec.decode_self_ms"),
    ("fastpath.codec.decode_record_fast", "repro.fastpath.codec:decode_record_fast",
     "fastpath.codec.decode_self_ms"),
    *[
        (f"inquery.invfile.{op}", f"repro.inquery.invfile:{cls}.{op}",
         f"inquery.invfile.{kind}_self_ms")
        for kind, ops in (
            ("fetch", ("fetch", "stream_postings", "open_prune_source")),
            ("write", ("add_record", "update_record", "append_postings")),
        )
        for op in ops
        for cls in ("MnemeInvertedFile", "LinkedMnemeInvertedFile")
    ],
    ("mneme.store.fetch", "repro.mneme.store:MnemeFile.fetch", "mneme.store.self_ms"),
    ("mneme.store.modify", "repro.mneme.store:MnemeFile.modify", "mneme.store.self_ms"),
    ("mneme.txn.log_write", "repro.mneme.recovery:RedoLog.log_write",
     "mneme.store.self_ms"),
    ("simdisk.filesystem.read", "repro.simdisk.filesystem:SimFile.read",
     "simdisk.filesystem.self_ms"),
    ("simdisk.filesystem.write", "repro.simdisk.filesystem:SimFile.write",
     "simdisk.filesystem.self_ms"),
    ("simdisk.disk.read_block", "repro.simdisk.disk:SimDisk.read_block",
     "simdisk.disk.self_ms"),
    ("simdisk.disk.write_block", "repro.simdisk.disk:SimDisk.write_block",
     "simdisk.disk.self_ms"),
    ("live.ingest.apply", "repro.live.ingest:IngestPipeline.apply",
     "live.ingest.apply_self_ms_per_doc"),
    # No self-time metric: ``live.ingest.compact_s`` is the untraced call time.
    ("live.ingest.compact", "repro.live.ingest:IngestPipeline.compact", None),
]

#: Spans whose worker-thread descendants parent to them.
FANOUT = {"shard.scheduler.run_wave"}
#: Spans that add a weight to a counter of their own name when they close.
WEIGH: Dict[str, Callable] = {
    "fastpath.codec.decode_record_arrays": lambda record, *_rest: len(record),
    "fastpath.codec.decode_record_fast": lambda record, *_rest: len(record),
    "shard.taat.collect_many": lambda _runner, texts: len(texts),
}

Span = Tuple[int, str, float, float, Optional[int], int]


class Tracer:
    """Records spans around the patched entry points while installed."""

    def __init__(self):
        self.spans: List[Span] = []       #: (id, name, start, end, parent, call)
        self.counters: Dict[str, int] = defaultdict(int)
        self.call = -1                    #: index of the call being served
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._fanout: Optional[int] = None
        self._restore: List[Tuple[object, str, object]] = []
        self._original_of: Dict[Callable, Callable] = {}

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        fanout = name in FANOUT
        weigh = WEIGH.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, parent_name = stack[-1]
                if parent_name == name:
                    # Recursion, or a subclass calling the method it
                    # overrides: one span for the outermost call.
                    return function(*args, **kwargs)
            elif threading.get_ident() != tracer._main:
                parent = tracer._fanout
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            if fanout:
                tracer._fanout = span_id
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if fanout:
                    tracer._fanout = None
                tracer.spans.append((span_id, name, start, end, parent, tracer.call))
                if weigh is not None:
                    tracer.counters[name] += weigh(*args)

        traced.__name__ = getattr(function, "__name__", name)
        self._original_of[traced] = function
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name, path, _metric in TARGETS:
            module_name, _, qualified = path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attribute = qualified.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                if attribute not in vars(owner):
                    continue  # inherited: the defining class is patched instead
                self._patch(owner, attribute, self.wrap(name, vars(owner)[attribute]))
            else:
                original = getattr(module, attribute)
                wrapped = self.wrap(name, original)
                # ``from x import f`` copies the reference: patch every copy.
                for holder in list(sys.modules.values()):
                    for key, value in list(getattr(holder, "__dict__", {}).items()):
                        if value is original:
                            self._patch(holder, key, wrapped)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()
        # A module first imported *during* the traced pass copied a wrapper.
        for holder in list(sys.modules.values()):
            for key, value in list(getattr(holder, "__dict__", {}).items()):
                if isinstance(value, types.FunctionType) and value in self._original_of:
                    setattr(holder, key, self._original_of[value])


# -- self time ------------------------------------------------------------------

def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on the same thread are disjoint; children on scheduler
    worker threads overlap each other, hence the union.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent, _call in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _name, start, end, _parent, _call in spans
    }


# -- counters: deltas of the layers' own stats objects ---------------------------

@dataclass
class Counters:
    """Sums over every machine of the counters the layers already keep."""

    blocks_read: int = 0
    blocks_written: int = 0
    random_reads: int = 0
    sequential_reads: int = 0
    fs_hits: int = 0
    fs_misses: int = 0
    read_calls: int = 0
    bytes_delivered: int = 0
    record_lookups: int = 0
    wal_bytes: int = 0
    buffer_evictions: int = 0
    buffer_refs: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    buffer_hits: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    @classmethod
    def read(cls, backend) -> "Counters":
        c = cls()
        for machine in machines(backend):
            disk, fs, store = machine.fs.disk.stats, machine.fs, machine.index.store
            c.blocks_read += disk.blocks_read
            c.blocks_written += disk.blocks_written
            c.random_reads += disk.random_reads
            c.sequential_reads += disk.sequential_reads
            c.fs_hits += fs.cache.stats.hits
            c.fs_misses += fs.cache.stats.misses
            for file in store.files:
                c.read_calls += file.stats.read_calls
                c.bytes_delivered += file.stats.bytes_delivered
            c.record_lookups += store.record_lookups
            if fs.exists("invfile.wal"):
                c.wal_bytes += fs.open("invfile.wal").stats.bytes_written
            for pool, stats in store.buffer_stats().items():
                c.buffer_refs[pool] += stats.refs
                c.buffer_hits[pool] += stats.hits
                c.buffer_evictions += stats.evictions
        return c


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class PassObserver:
    """Hooks the traced pass: install around the replay, snapshot counters."""

    def __init__(self):
        self.tracer = Tracer()
        self.before: Optional[Counters] = None
        self.after: Optional[Counters] = None
        self.replay_start = 0.0

    def begin(self, system, service) -> None:
        self.before = Counters.read(system.backend)
        self.tracer.install()
        self.replay_start = time.perf_counter()

    def on_call(self, index: int) -> None:
        self.tracer.call = index

    def end(self, system, service) -> None:
        self.tracer.uninstall()
        self.after = Counters.read(system.backend)


def per_layer(m: Measurement, observer: PassObserver) -> Dict[str, float]:
    """Every per-layer metric, zero (not missing) where a layer did not run.

    The traced pass is the run's last; the ones before it are untraced.
    """
    traced, untraced = m.passes[-1], m.passes[:-1]
    spans = observer.tracer.spans
    own = self_times(spans)
    self_ms: Dict[str, float] = defaultdict(float)
    span_count: Dict[str, int] = defaultdict(int)
    duration: Dict[str, float] = defaultdict(float)
    metric_of = {name: metric for name, _path, metric in TARGETS}
    main_roots = 0.0
    for span_id, name, start, end, parent, _call in spans:
        self_ms[metric_of[name]] += own[span_id] * 1000.0
        span_count[name] += 1
        duration[name] += end - start
        if parent is None:
            main_roots += end - start

    calls, outputs = m.calls, traced.outputs
    requests = m.requests
    served = [
        row for call, output in zip(calls, outputs)
        if call.kind == "query" and not isinstance(output, ReproError)
        for row in output.served
    ]
    results = [row.result for row in served]
    stats = m.service.stats
    cache = m.service.cache.stats if m.service.cache is not None else None
    term = m.service.term_cache_stats()
    before, after = observer.before, observer.after

    def delta(counter: str) -> int:
        return getattr(after, counter) - getattr(before, counter)

    def per_req(value: float) -> float:
        return value / requests

    scored = sum(getattr(r, "documents_scored", 0) for r in results)
    skipped = sum(getattr(r, "documents_skipped", 0) for r in results)
    mutated = sum(len(c.adds) + len(c.deletes) for c in calls)
    t_c = min_over_passes([p.call_s for p in untraced])
    ingest_s = sum(t for t, c in zip(t_c, calls) if c.kind == "ingest")
    compact_s = sum(t for t, c in zip(t_c, calls) if c.kind == "compact")
    ingest_sim_ms = sum(
        o.wall_ms for c, o in zip(calls, outputs)
        if c.kind == "ingest" and not isinstance(o, ReproError)
    )
    compactions = [
        o for c, o in zip(calls, outputs)
        if c.kind == "compact" and not isinstance(o, ReproError)
    ]
    built = [p.phases for p in m.passes if p.phases]
    shards = getattr(m.system.backend, "n_shards", 1)
    engine_calls = (
        span_count["inquery.engine.run_query"]
        + observer.tracer.counters["shard.taat.collect_many"]
    )
    codec_spans = (
        span_count["fastpath.codec.decode_record_arrays"]
        + span_count["fastpath.codec.decode_record_fast"]
    )
    codec_bytes = (
        observer.tracer.counters["fastpath.codec.decode_record_arrays"]
        + observer.tracer.counters["fastpath.codec.decode_record_fast"]
    )

    out = {
        "synth.generate_s": min(p["generate_s"] for p in built),
        "core.prepared.prepare_s": min(p["prepare_s"] for p in built),
        "core.prepared.materialize_s": min(p["materialize_s"] for p in built),
        "inquery.query.self_ms": per_req(self_ms["inquery.query.self_ms"]),
        "inquery.query.nodes_per_req": _ratio(
            sum(count_nodes(parse_query(row.text)) for row in served), len(served)
        ),
        "serve.service.self_ms": per_req(self_ms["serve.service.self_ms"]),
        "serve.service.waves": stats.waves,
        "serve.service.evaluated_per_req": per_req(stats.evaluated),
        "serve.service.shared_in_wave": stats.shared_in_wave,
        "serve.cache.self_ms": per_req(self_ms["serve.cache.self_ms"]),
        "serve.cache.hit_rate": cache.hit_rate if cache else 0.0,
        "serve.cache.evictions": cache.evictions if cache else 0,
        "serve.cache.invalidations": cache.invalidations if cache else 0,
        "serve.termcache.self_ms": per_req(self_ms["serve.termcache.self_ms"]),
        "serve.termcache.hit_rate": term.hit_rate,
        "serve.termcache.evictions": term.evictions,
        "serve.termcache.peak_bytes": term.peak_bytes,
        "serve.termcache.invalidated_terms": term.invalidated_terms,
        "shard.scheduler.self_ms": per_req(self_ms["shard.scheduler.self_ms"]),
        "shard.scheduler.barriers_per_req": per_req(stats.barriers),
        "shard.scheduler.shard_skew": stats.shard_skew if stats.shard_busy_ms else 0.0,
        "shard.scheduler.worker_busy_fraction": _ratio(
            duration["shard.taat.collect_many"] + duration["shard.taat.score_many"],
            duration["shard.scheduler.run_wave"] * shards,
        ),
        "inquery.engine.self_ms": per_req(self_ms["inquery.engine.self_ms"]),
        "inquery.engine.calls_per_req": per_req(engine_calls),
        "inquery.daat.self_ms": per_req(self_ms["inquery.daat.self_ms"]),
        "inquery.daat.documents_scored_per_req": per_req(scored),
        "inquery.daat.peak_resident_bytes": max(
            (getattr(r, "peak_resident_bytes", 0) for r in results), default=0
        ),
        "fastpath.prune.self_ms": per_req(self_ms["fastpath.prune.self_ms"]),
        "fastpath.prune.scored_fraction": _ratio(scored, scored + skipped),
        "fastpath.prune.documents_skipped_per_req": per_req(skipped),
        "fastpath.prune.blocks_skipped_per_req": per_req(
            sum(getattr(r, "blocks_skipped", 0) for r in results)
        ),
        "fastpath.prune.threshold_updates_per_req": per_req(
            sum(getattr(r, "prune_threshold_updates", 0) for r in results)
        ),
        "fastpath.codec.decode_self_ms": per_req(self_ms["fastpath.codec.decode_self_ms"]),
        "fastpath.codec.decode_calls_per_req": per_req(codec_spans),
        "fastpath.codec.decoded_bytes_per_req": per_req(codec_bytes),
        "inquery.invfile.fetch_self_ms": per_req(self_ms["inquery.invfile.fetch_self_ms"]),
        "inquery.invfile.record_lookups_per_req": per_req(delta("record_lookups")),
        "inquery.invfile.write_self_ms": per_req(self_ms["inquery.invfile.write_self_ms"]),
        "mneme.store.self_ms": per_req(self_ms["mneme.store.self_ms"]),
        "mneme.store.accesses_per_lookup": _ratio(
            delta("read_calls"), delta("record_lookups")
        ),
        **{
            f"mneme.buffers.hit_rate.{pool}": _ratio(
                after.buffer_hits[pool] - before.buffer_hits[pool],
                after.buffer_refs[pool] - before.buffer_refs[pool],
            )
            for pool in ("small", "medium", "large")
        },
        "mneme.buffers.evictions": delta("buffer_evictions"),
        "mneme.txn.wal_bytes_per_doc": _ratio(delta("wal_bytes"), mutated),
        "simdisk.filesystem.self_ms": per_req(self_ms["simdisk.filesystem.self_ms"]),
        "simdisk.filesystem.kb_read_per_req": per_req(delta("bytes_delivered") / 1024.0),
        "simdisk.filesystem.cache_hit_rate": _ratio(
            delta("fs_hits"), delta("fs_hits") + delta("fs_misses")
        ),
        "simdisk.disk.self_ms": per_req(self_ms["simdisk.disk.self_ms"]),
        "simdisk.disk.blocks_read_per_req": per_req(delta("blocks_read")),
        "simdisk.disk.blocks_written_per_req": per_req(delta("blocks_written")),
        "simdisk.disk.random_read_fraction": _ratio(
            delta("random_reads"), delta("random_reads") + delta("sequential_reads")
        ),
        "live.ingest.apply_self_ms_per_doc": _ratio(
            self_ms["live.ingest.apply_self_ms_per_doc"], mutated
        ),
        "live.ingest.real_docs_per_s": _ratio(mutated, ingest_s),
        "live.ingest.sim_docs_per_s": _ratio(mutated * 1000.0, ingest_sim_ms),
        "live.ingest.compact_s": compact_s,
        "live.ingest.tombstones_folded": sum(o.tombstones_folded for o in compactions),
        "live.ingest.bytes_reclaimed": sum(o.bytes_reclaimed for o in compactions),
        "trace.overhead_ratio": traced.wall_s / min(p.wall_s for p in untraced),
        "trace.unattributed_fraction": 1.0 - main_roots / traced.wall_s,
        "real_pass_spread": pass_spread(untraced),
    }
    return {name: float(value) for name, value in out.items()}


def write_trace(path, m: Measurement, observer: PassObserver,
                metrics: Dict[str, float]) -> None:
    """``out/<workload>.trace.json``: every span, times in microseconds
    from the start of the traced replay."""
    names = sorted({name for _id, name, *_rest in observer.tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = observer.replay_start
    document = {
        "workload": m.workload.name,
        "seed": m.seed,
        "columns": ["id", "name", "start_us", "end_us", "parent", "call"],
        "names": names,
        "spans": [
            [span_id, index[name], round((start - origin) * 1e6),
             round((end - origin) * 1e6), parent, call]
            for span_id, name, start, end, parent, call
            in sorted(observer.tracer.spans)
        ],
        "metrics": metrics,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
