"""The retrieval engine: term-at-a-time evaluation and ranking.

Ties together the query parser, the inference network, the hash
dictionary, and whichever inverted file backend the system was built
with.  Before a query tree is processed the engine performs the paper's
reservation optimization: "we quickly scan the tree and 'reserve' any
objects required by the query that are already resident, potentially
avoiding a bad replacement choice."

All engine work charges *user* CPU on the shared simulated clock (record
decompression, belief arithmetic, ranking); the storage layers below
charge system CPU and I/O wait.  That split is what separates Table 3
from Table 4.

The belief evaluation runs on the vectorized kernels in
:mod:`repro.fastpath` unless the one kill switch
(:mod:`repro.fastpath.state`) is off, in which case the pure-Python
reference network evaluates.  The two perform identical storage
accesses and simulated charges and produce bit-identical rankings —
the switch changes real wall-clock time only, and it is read per query,
where the dispatch happens.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import BadBlockError
from ..fastpath import codec as _codec
from ..fastpath import state as _fastpath
from ..fastpath.topk import rank
from ..simdisk import SimClock
from .indexer import CollectionIndex
from .network import InferenceNetwork, TermProvider
from .postings import Posting, decode_record, live_postings
from .query import QueryNode, count_nodes, parse_query, query_terms

#: Documents returned per query across the whole system — the engines,
#: the shard scheduler, the query service, the CLI, and the benchmarks
#: all default to this single value, so a "top k" is the same k
#: everywhere (and the serving cache key stays coherent).
DEFAULT_TOP_K = 50


@dataclass
class QueryResult:
    """Ranked output of one query.

    ``degraded`` means at least one term's inverted list stayed
    unreadable after the store's bounded retries (and repair, where a
    redo log was attached) and was evaluated as contributing no
    evidence.  The ranking is still deterministic and correctly ordered
    *for the evidence that was readable*; ``completeness`` quantifies
    how much evidence that was.
    """

    query: str
    ranking: List[Tuple[int, float]]  #: (doc id, belief), best first
    terms_looked_up: int = 0
    degraded: bool = False
    terms_attempted: int = 0  #: stored terms the evaluation tried to read
    terms_failed: int = 0     #: stored terms skipped as unreadable

    def doc_ids(self) -> List[int]:
        return [doc for doc, _score in self.ranking]

    @property
    def completeness(self) -> float:
        """Fraction of attempted stored terms whose evidence was used."""
        if not self.terms_attempted:
            return 1.0
        return 1.0 - self.terms_failed / self.terms_attempted


class _IndexProvider(TermProvider):
    """Adapts a :class:`CollectionIndex` to the inference network."""

    #: Optional term cache (:class:`repro.serve.termcache.TermCache`)
    #: attached by the owning engine/runner.  ``None`` (the default) is
    #: the historical path, byte-for-byte.  Duck-typed on purpose: this
    #: layer never imports the serve package.
    term_cache = None

    #: Per-query memo of decoded terms, switched on (``{}``) by the
    #: sharded runner: a term's first read does the storage access and
    #: pays its charges, every repeat within the query is free — one
    #: fetch per term per query whatever leaf kinds mention it.  ``None``
    #: (the unsharded engine) reads every mention.
    memo = None

    def __init__(self, index: CollectionIndex, clock: SimClock, reserve: bool):
        self._index = index
        self._clock = clock
        self._reserve = reserve
        self.lookups = 0
        self.attempts = 0   #: stored-term reads attempted
        self.failures = 0   #: stored-term reads that stayed unreadable

    def _cache_probe(self, term: str):
        """Probe the attached term cache for ``term``'s record.

        Returns the cache entry or ``None``; either way the probe cost
        is charged so latency accounting stays honest.  The dictionary
        guards run first (identically to the cache-off path), so a term
        with no stored record never reaches the cache at all.
        """
        cache = self.term_cache
        if cache is None:
            return None
        entry = self._index.term_entry(term)
        if entry is None or entry.df == 0 or entry.storage_key == 0:
            return None
        self._clock.charge_user(cache.probe_ms)
        return cache.get("arrays", term)

    @property
    def doc_count(self) -> int:
        return len(self._index.doctable)

    @property
    def average_doc_length(self) -> float:
        return self._index.doctable.average_length

    def doc_length(self, doc_id: int) -> int:
        return self._index.doctable.length_of(doc_id)

    def _fetch(self, term: str) -> Optional[bytes]:
        """Common storage access for both posting representations.

        An unreadable record (after the store's own retries and repair)
        degrades to "no evidence for this term" instead of aborting the
        query; the engine surfaces the failure count on the result.
        Only :class:`~repro.errors.BadBlockError` and subclasses degrade
        — anything else is a bug and propagates.
        """
        entry = self._index.term_entry(term)
        if entry is None or entry.df == 0 or entry.storage_key == 0:
            return None
        self.attempts += 1
        try:
            record = self._index.store.fetch(entry.storage_key)
        except BadBlockError:
            self.failures += 1
            return None
        self.lookups += 1
        cost = self._clock.cost
        self._clock.charge_user(cost.cpu_ms_per_kb_decode * (len(record) / 1024.0))
        return record

    def _memoized(self, term: str, decode):
        memo = self.memo
        if memo is None:
            return self._read(term, decode)
        if term not in memo:
            memo[term] = self._read(term, decode)
        return memo[term]

    def _read(self, term: str, decode):
        """One term's live postings, as ``decode(record, dead)`` shapes them.

        A term-cache hit supplies the record bytes and skips the store
        fetch and its decode charge; a miss fetches and caches them.
        Either way the record is decoded and its tombstoned documents
        are dropped *before* the per-position charge, so a query sees
        (and pays for) exactly the postings a fresh build of the live
        corpus would contain.  A clean hit skips that charge too: the
        structures it stands for are already resident.
        """
        hit = self._cache_probe(term)
        if hit is None:
            record = self._fetch(term)
            if record is None:
                return None
            dead = self._index.tombstones
            if self.term_cache is not None:
                self.term_cache.put(
                    "arrays", term, record, len(record), dead=dead,
                )
        else:
            self.attempts += 1
            self.lookups += 1
            record = hit.payload
            dead = hit.dead | self._index.tombstones
        postings, positions = decode(record, dead)
        if hit is None or dead:
            self._clock.charge_user(self._clock.cost.cpu_ms_per_posting * positions)
        return postings

    def postings(self, term: str) -> Optional[List[Posting]]:
        return self._memoized(term, _decode_postings)

    def charge_combine(self, updates: int) -> None:
        self._clock.charge_user(self._clock.cost.cpu_ms_per_posting * updates)


class _FastIndexProvider(_IndexProvider):
    """Array-returning provider: same accesses and charges, no dicts."""

    #: The owning engine's :class:`~repro.fastpath.codec.DecodeCache`,
    #: shared across its queries (the DAAT engine decodes its stream
    #: chunks and MaxScore blocks through its own).  Keyed by record
    #: *content*, so an updated record never hits stale arrays; the
    #: tombstone-filtered arrays are memoized beside them, keyed by
    #: (record, tombstone set).  It elides only real decode and filter
    #: time: fetches, charges and term-cache traffic are the reference
    #: provider's.
    decode_cache: "_codec.DecodeCache"

    def postings_arrays(self, term: str):
        return self._memoized(term, self._decode_arrays)

    def _decode_arrays(self, record: bytes, dead):
        arrays = self.decode_cache.decode_live(record, dead)
        # `sum(len(p))` over the reference postings == ctf.
        return arrays, arrays.ctf

    @property
    def doc_id_space(self):
        from ..fastpath.beliefs import doc_id_space

        return doc_id_space(self._index.doctable)


def _decode_postings(record: bytes, dead):
    postings = live_postings(decode_record(record), dead)
    return postings, sum(len(p) for _d, p in postings)


class RetrievalEngine:
    """Processes queries against one :class:`CollectionIndex`.

    Parameters
    ----------
    index:
        The indexed collection (any storage backend).
    clock:
        The machine's simulated clock; defaults to the one owned by the
        index's file system disk.
    top_k:
        Documents returned per query.
    use_reservation:
        The query-tree reserve pass; on by default (the paper's system),
        switchable for the reservation ablation.
    """

    def __init__(
        self,
        index: CollectionIndex,
        clock: Optional[SimClock] = None,
        top_k: int = DEFAULT_TOP_K,
        use_reservation: bool = True,
    ):
        self.index = index
        self.clock = clock if clock is not None else index.fs.disk.clock
        self.top_k = top_k
        self.use_reservation = use_reservation
        self._decode_cache = _codec.DecodeCache()
        #: Optional term cache attached by the serving layer
        #: (``None`` = the historical path, byte-for-byte).
        self.term_cache = None

    def open_query(self, text: str) -> Tuple[QueryNode, _IndexProvider, InferenceNetwork]:
        """Parse, charge, reserve; this query's tree, provider and network.

        The caller evaluates (one pass here, two phases on a shard),
        hands the scores to :meth:`result`, and releases the
        reservations when the query — or its whole wave — is done.
        """
        tree = parse_query(text)
        self.clock.charge_user(self.clock.cost.cpu_ms_per_query_node * count_nodes(tree))
        if self.use_reservation:
            self._reserve_resident_objects(tree)
        if _fastpath.enabled():
            from ..fastpath.network import FastInferenceNetwork

            provider = _FastIndexProvider(self.index, self.clock, self.use_reservation)
            provider.decode_cache = self._decode_cache
            network = FastInferenceNetwork(provider)
        else:
            provider = _IndexProvider(self.index, self.clock, self.use_reservation)
            network = InferenceNetwork(provider)
        provider.term_cache = self.term_cache
        return tree, provider, network

    def result(self, text: str, provider: _IndexProvider, scores) -> QueryResult:
        """Rank a finished score table and assemble the result.

        Document ranking is a selection problem (charged as user CPU):
        top-k selection is O(n log k) against a full sort's O(n log n),
        and the returned ranking (order and ties) is identical.  ``n`` is
        ``len(scores)``: the reference dict's size, or a dense
        accumulator's touched count — the same number.
        """
        self.clock.charge_user(self.clock.cost.cpu_ms_per_posting * len(scores))
        return QueryResult(
            query=text,
            ranking=rank(scores, self.top_k),
            terms_looked_up=provider.lookups,
            degraded=provider.failures > 0,
            terms_attempted=provider.attempts,
            terms_failed=provider.failures,
        )

    def run_query(self, text: str) -> QueryResult:
        """Parse, reserve, evaluate, and rank one query."""
        tree, provider, network = self.open_query(text)
        try:
            scores, _default = network.evaluate(tree)
            return self.result(text, provider, scores)
        finally:
            self.index.store.release_reservations()

    def run_batch(self, queries: List[str]) -> List[QueryResult]:
        """Process a query set in batch mode, as the paper's runs do."""
        return [self.run_query(text) for text in queries]

    def _reserve_resident_objects(self, tree: QueryNode) -> None:
        """The pre-evaluation scan that pins already-resident objects.

        Reservation is an optimization, never a requirement: a storage
        failure while probing residency (e.g. an auxiliary table read on
        a failing disk) degrades to "nothing pinned" — the evaluation
        itself handles the real read failures.
        """
        for term in query_terms(tree):
            entry = self.index.term_entry(term)
            if entry is not None and entry.storage_key:
                try:
                    self.index.store.reserve(entry.storage_key)
                except BadBlockError:
                    return
