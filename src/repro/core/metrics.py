"""Per-run measurement: the quantities behind Tables 3-6.

A measured run reproduces the paper's methodology:

* a **cold start** — the OS file cache is purged (the 32 MB chill file)
  and every user-space cache is dropped (fresh INQUERY process);
* timing begins *after* open/initialization and covers only query
  processing;
* the reported statistics are
  - wall-clock time (Table 3),
  - system CPU + I/O wait (Table 4),
  - ``I`` = 8 KB blocks actually read from disk,
    ``A`` = file accesses per record lookup,
    ``B`` = Kbytes read from the inverted file (Table 5),
  - per-pool buffer references / hits / rate (Table 6).

The simulation is deterministic, so a single run replaces the paper's
mean over six runs (their runs differed by <1% anyway).
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..inquery import DEFAULT_TOP_K, MnemeInvertedFile, QueryResult, RetrievalEngine
from ..mneme import BufferStats
from ..simdisk import FileStats
from .prepared import IRSystem

if TYPE_CHECKING:
    from ..serve.termcache import TermCacheStats


@dataclass
class RunMetrics:
    """Everything measured in one batch run of a query set."""

    system: str
    query_set: str
    queries: int
    wall_s: float
    user_s: float
    system_io_s: float
    io_inputs: int            #: "I": 8 KB blocks read from disk
    file_accesses: int
    record_lookups: int
    bytes_from_file: int
    buffer_stats: Dict[str, BufferStats] = field(default_factory=dict)
    results: List[QueryResult] = field(default_factory=list)
    #: Queries that completed with at least one unreadable term skipped.
    degraded_queries: int = 0
    #: Stored-term reads that stayed unreadable, summed over the run.
    terms_failed: int = 0
    #: Dynamic-pruning effect counters, summed over the run.  All three
    #: are zero on exhaustive paths (pruning off, or auto-fallback).
    documents_skipped: int = 0
    blocks_skipped: int = 0
    prune_threshold_updates: int = 0
    #: The run's :class:`~repro.serve.termcache.TermCacheStats` (``None``
    #: when no term cache was attached).  Unlike the fields above it is
    #: not results-derived: harnesses that attach caches fill it in.
    term_cache: Optional["TermCacheStats"] = None

    @property
    def accesses_per_lookup(self) -> float:
        """"A": average file accesses per inverted list record lookup."""
        if not self.record_lookups:
            return 0.0
        return self.file_accesses / self.record_lookups

    @property
    def kbytes_from_file(self) -> float:
        """"B": total Kbytes read from the inverted file."""
        return self.bytes_from_file / 1024.0


def cold_start(system: IRSystem) -> None:
    """Purge every cache and zero the clock, as each paper run began."""
    store = system.index.store
    if isinstance(store, MnemeInvertedFile):
        store.mfile.drop_user_caches()
    else:
        store.tree.drop_user_caches()
    system.fs.chill()
    system.clock.reset()


class SystemSnapshot:
    """Every counter a run is measured as a delta against.

    Factored out of :func:`measure_run` so harnesses that drive engines
    themselves (the shard scheduler, custom replay loops) measure with
    the identical methodology: snapshot, run, difference.
    """

    def __init__(self, system: IRSystem):
        store = system.index.store
        self._system = system
        self._clock = system.clock.snapshot()
        self._disk = system.fs.disk.stats.copy()
        self._files = [(f, f.stats.copy()) for f in store.files]
        self._lookups = store.record_lookups
        self._buffers: Dict[str, BufferStats] = {}
        if isinstance(store, MnemeInvertedFile):
            self._buffers = {
                k: s.copy() for k, s in store.buffer_stats().items()
            }

    def metrics(
        self,
        results: List[QueryResult],
        query_set_name: str = "",
        queries: int = 0,
        keep_results: bool = True,
    ) -> RunMetrics:
        """The paper's metrics accumulated since this snapshot."""
        system = self._system
        store = system.index.store
        elapsed = system.clock.since(self._clock)
        disk_delta = system.fs.disk.stats - self._disk
        files = sum((f.stats - s for f, s in self._files), FileStats())
        buffer_stats: Dict[str, BufferStats] = {}
        if isinstance(store, MnemeInvertedFile):
            buffer_stats = {
                name: stats - self._buffers[name]
                for name, stats in store.buffer_stats().items()
            }
        return RunMetrics(
            system=system.config.name,
            query_set=query_set_name,
            queries=queries or len(results),
            wall_s=elapsed.wall_ms / 1000.0,
            user_s=elapsed.user_ms / 1000.0,
            system_io_s=elapsed.system_io_ms / 1000.0,
            io_inputs=disk_delta.blocks_read,
            file_accesses=files.read_calls,
            record_lookups=store.record_lookups - self._lookups,
            bytes_from_file=files.bytes_delivered,
            buffer_stats=buffer_stats,
            results=results if keep_results else [],
            degraded_queries=sum(1 for r in results if r.degraded),
            terms_failed=sum(r.terms_failed for r in results),
            documents_skipped=sum(
                getattr(r, "documents_skipped", 0) for r in results
            ),
            blocks_skipped=sum(getattr(r, "blocks_skipped", 0) for r in results),
            prune_threshold_updates=sum(
                getattr(r, "prune_threshold_updates", 0) for r in results
            ),
        )


def measure_run(
    system: IRSystem,
    queries: List[str],
    query_set_name: str = "",
    top_k: int = DEFAULT_TOP_K,
    cold: bool = True,
    keep_results: bool = True,
) -> RunMetrics:
    """Run a query set against a system and collect the paper's metrics."""
    if cold:
        cold_start(system)
    snapshot = SystemSnapshot(system)
    engine = RetrievalEngine(
        system.index,
        top_k=top_k,
        use_reservation=system.config.use_reservation,
    )
    results = engine.run_batch(queries)
    return snapshot.metrics(
        results,
        query_set_name=query_set_name,
        queries=len(queries),
        keep_results=keep_results,
    )


def improvement(baseline: float, measured: float) -> float:
    """The paper's improvement metric: (B-tree - Mneme) / B-tree."""
    if baseline <= 0:
        return 0.0
    return (baseline - measured) / baseline
