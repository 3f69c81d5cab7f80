"""The four workloads: seeded inputs, call schedule, service shape.

A workload is a pure function of ``--seed``: the collection, the query
pools, the request stream and the mutation schedule are all generated
here, and the program under test (``repro``) sees only what this module
hands it.  One *call* is one ``QueryService.process(wave)``, one
``ingest(...)`` or one ``compact()``; the schedule is the ordered list
of calls a pass replays, closed loop, one client.

Why these four (the ``why`` strings are also what ``BENCHMARK.json``
records): each one puts the time in a different set of layers, so an
optimisation has one workload that exercises its mechanism and at least
one that bypasses it.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import config_by_name
from repro.core.prepared import materialize
from repro.serve import QueryService
from repro.synth import PROFILES, SyntheticCollection, generate_query_set
from repro.synth.queries import QueryProfile
from repro.synth.traffic import TimedRequest, TrafficProfile, open_loop_requests

DEFAULT_SEED = 12


@dataclass(frozen=True)
class Call:
    """One timed call into the service."""

    kind: str                                  #: "query" | "ingest" | "compact"
    texts: Tuple[str, ...] = ()                #: query: the wave, in order
    adds: Tuple[int, ...] = ()                 #: ingest: document ids to add
    deletes: Tuple[int, ...] = ()              #: ingest: document ids to tombstone

    @property
    def requests(self) -> int:
        """Requests a user would count: queries, or one per write call."""
        return len(self.texts) if self.kind == "query" else 1


@dataclass
class Inputs:
    """Everything one pass is generated from (rebuilt identically per pass)."""

    collection: SyntheticCollection
    calls: List[Call]
    #: Epoch -> live document ids once that epoch is published (epoch 0
    #: is the base corpus).  Only mutating workloads have more than one.
    live_ids: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    collection: str                 #: key into ``repro.synth.PROFILES``
    config: str                     #: ``repro.core.config.config_by_name`` key
    service: Dict[str, object]      #: ``QueryService`` keyword arguments
    #: Fewest passes a run replays.  Every real-time figure is a minimum
    #: over passes, so this is what the time budget (37 s a run, set-up
    #: and oracle included) buys: 16 s of ``daat-pruned`` is three passes,
    #: and ``shard-repeat``, whose worker threads make it the noisiest
    #: (whole passes read 3.3-8.3 s on a busy host), gets the most.
    passes: int
    use_wal: bool = False
    shards: Optional[int] = None    #: None = flat single-disk system
    replicas: int = 0
    mutates: bool = False           #: a pass changes the index (fresh build per pass)

    @property
    def engine(self) -> str:
        return self.service["engine"]

    def system_config(self):
        return config_by_name(self.config, use_wal=self.use_wal)

    # -- inputs ---------------------------------------------------------------

    def generate(self, seed: int) -> Inputs:
        collection = SyntheticCollection(
            dataclasses.replace(PROFILES[self.collection], seed=_subseed(seed, 0))
        )
        return _SCHEDULES[self.name](collection, seed)

    # -- the system under test --------------------------------------------------

    def materialize(self, prepared):
        return materialize(
            prepared, self.system_config(), shards=self.shards, replicas=self.replicas
        )

    def serve(self, backend) -> QueryService:
        return QueryService(backend, cold=True, **self.service)


def _subseed(seed: int, stream: int) -> int:
    """Independent generator seeds per input stream, all from ``--seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _pool(collection, seed: int, stream: int, styles: Sequence[Tuple[str, int, int]],
          bias_alpha: float) -> List[str]:
    """A query pool: ``(style, count, mean_terms)`` blocks, then shuffled so
    no style is bunched at one end of the replay."""
    queries: List[str] = []
    for offset, (style, count, mean_terms) in enumerate(styles):
        queries.extend(generate_query_set(collection, QueryProfile(
            name=f"{style}-{count}", style=style, n_queries=count,
            mean_terms=mean_terms, bias_alpha=bias_alpha,
            seed=_subseed(seed, stream + offset),
        )).queries)
    order = np.random.default_rng(_subseed(seed, stream + len(styles))).permutation(
        len(queries)
    )
    return [queries[i] for i in order]


def _wave(texts: Sequence[str]) -> Call:
    return Call(kind="query", texts=tuple(texts))


MIXED_STYLES = ("natural", "weighted", "phrase", "boolean")


def _taat_cold(collection, seed: int) -> Inputs:
    # No phrase queries here: on this collection about a fifth of the
    # sampled bigrams pair two very frequent terms and cost 30-280 ms of
    # real time against 5-15 ms for everything else, so how many a seed
    # happens to draw decided real_qps (96-142 req/s) and real_p95_ms
    # (13-57 ms).  Proximity is measured by the two cacm-s workloads.
    pool = _pool(
        collection, seed, 10,
        [("natural", 70, 8), ("weighted", 65, 8), ("boolean", 65, 8)], 1.2,
    )
    return Inputs(collection, [_wave([text]) for text in pool])


def _daat_pruned(collection, seed: int) -> Inputs:
    pool = _pool(
        collection, seed, 20, [("natural", 100, 10), ("weighted", 100, 8)], 1.5
    )
    return Inputs(collection, [_wave([text]) for text in pool])


SHARD_WAVE = 4


def _shard_repeat(collection, seed: int) -> Inputs:
    pool = _pool(
        collection, seed, 30, [(style, 100, 8) for style in MIXED_STYLES], 1.2
    )
    stream = open_loop_requests(pool, TrafficProfile(
        name="shard-repeat", n_requests=800, rate_qps=0.0, repeat_rate=0.5,
        seed=_subseed(seed, 39),
    ))
    texts = [request.text for request in stream]
    return Inputs(collection, [
        _wave(texts[i:i + SHARD_WAVE]) for i in range(0, len(texts), SHARD_WAVE)
    ])


INGEST_EPOCHS = 16
INGEST_ADDS = 12
INGEST_DELETES = 4
INGEST_POOL = 32
INGEST_WAVE = 4
#: The one compaction runs mid-schedule, so the epochs after it are
#: served from the compacted store.
COMPACT_AFTER = 8
#: Epochs whose served rankings are checked against a stop-the-world
#: rebuild: the last before the compaction and the last of the run.
ORACLE_EPOCHS = (COMPACT_AFTER, INGEST_EPOCHS)


def _ingest_mixed(collection, seed: int) -> Inputs:
    # A fresh slice of the pool per epoch: the same cost as re-serving one
    # slice (an ingest drops the result cache anyway), sixteen times the
    # distinct queries behind every percentile.
    per_style = INGEST_EPOCHS * INGEST_POOL // len(MIXED_STYLES)
    pool = _pool(
        collection, seed, 40, [(style, per_style, 8) for style in MIXED_STYLES], 1.2
    )
    rng = np.random.default_rng(_subseed(seed, 49))
    live = set(range(1, len(collection) + 1))
    next_id = len(collection)
    calls: List[Call] = []
    live_ids = {0: tuple(sorted(live))}
    for epoch in range(1, INGEST_EPOCHS + 1):
        adds = tuple(range(next_id + 1, next_id + INGEST_ADDS + 1))
        next_id += INGEST_ADDS
        candidates = sorted(live)
        deletes = tuple(sorted(
            candidates[i]
            for i in rng.choice(len(candidates), INGEST_DELETES, replace=False)
        ))
        live.update(adds)
        live.difference_update(deletes)
        live_ids[epoch] = tuple(sorted(live))
        calls.append(Call(kind="ingest", adds=adds, deletes=deletes))
        # Round 1 evaluates the epoch's slice (the ingest just dropped the
        # result cache); round 2 repeats half of it and hits.  A third of the requests
        # hit, so the median request is an evaluation, not a cache probe
        # (whose simulated cost is quantised in half-millisecond steps).
        fresh = pool[(epoch - 1) * INGEST_POOL:epoch * INGEST_POOL]
        for texts in (fresh, fresh[:INGEST_POOL // 2]):
            for i in range(0, len(texts), INGEST_WAVE):
                calls.append(_wave(texts[i:i + INGEST_WAVE]))
        if epoch == COMPACT_AFTER:
            calls.append(Call(kind="compact"))
    return Inputs(collection, calls, live_ids)


_SCHEDULES = {
    "taat-cold": _taat_cold,
    "daat-pruned": _daat_pruned,
    "shard-repeat": _shard_repeat,
    "ingest-mixed": _ingest_mixed,
}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="taat-cold",
        why=(
            "the paper's Table 3-6 regime: every request runs parse, inference "
            "network, store fetch, v-byte decode, Mneme buffers, file system "
            "and disk with nothing cached above the buffers"
        ),
        collection="tipster-s", config="mneme-cache", passes=5,
        service=dict(engine="taat", workers=1, max_batch=1, use_cache=False),
    ),
    Workload(
        name="daat-pruned",
        why=(
            "flat #sum/#wsum queries on the pruned document-at-a-time engine: "
            "the only place fastpath.prune, posting streams and linked-chunk "
            "bound sidecars do the work; TAAT and every serving cache idle"
        ),
        collection="tipster1-s", config="mneme-linked", passes=3,
        service=dict(engine="daat", prune="auto", workers=1, max_batch=1,
                     use_cache=False),
    ),
    Workload(
        name="shard-repeat",
        why=(
            "repeating burst traffic on 2x2 sharded replicas with a working set "
            "larger than both cache tiers: time goes to normalization, result and "
            "term caches, scheduler barriers, df exchange and merge"
        ),
        collection="cacm-s", config="mneme-cache", shards=2, replicas=1, passes=5,
        service=dict(engine="taat", workers=2, max_batch=SHARD_WAVE, cache_size=32,
                     term_cache_bytes=32 * 1024),
    ),
    Workload(
        name="ingest-mixed",
        why=(
            "writes beside reads on one WAL-backed store: ingest, cache "
            "invalidation and compaction share the store and caches with "
            "queries, so a read gain bought with slower writes shows here"
        ),
        collection="cacm-s", config="mneme-linked", use_wal=True, mutates=True,
        passes=4,
        service=dict(engine="taat", workers=2, max_batch=INGEST_WAVE,
                     term_cache_bytes=4 * 1024 * 1024),
    ),
)}


def wave_requests(call: Call) -> List[TimedRequest]:
    """A wave as the burst the service sees: every request due at t=0."""
    return [
        TimedRequest(text=text, arrival_ms=0.0, seq=i)
        for i, text in enumerate(call.texts)
    ]
