"""Collection indexing: building the inverted file.

"Indexing a large collection can be very expensive because it is
dominated by a sorting problem, where the inverted list entries for every
term appearance in the collection are sorted by term identifier and
document identifier."  :class:`IndexBuilder` implements exactly that:
term appearances accumulate as (term id, doc id, position) triples,
spill into sorted runs when the in-memory budget is reached, and a k-way
merge over the runs streams records (in term-id order) into whichever
:class:`~repro.inquery.invfile.InvertedFileStore` backs the index.

The result is a :class:`CollectionIndex`: the hash dictionary, document
table, and storage backend bound together, ready for the retrieval
engine.
"""

import heapq
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import IndexError_
from ..fastpath import state as _fastpath
from ..simdisk import SimFileSystem
from .dictionary import HashDictionary, TermEntry
from .documents import Document, DocTable
from .interleaved import to_columnar
from .invfile import InvertedFileStore
from .normalize import normalize_term
from .postings import Posting, drop_documents, encode_record, uncompressed_size
from .stem import stem as default_stem
from .text import tokenize


@dataclass
class IndexStats:
    """Facts gathered while building (feeds Table 1 and Figure 1)."""

    documents: int = 0
    postings: int = 0
    records: int = 0
    compressed_bytes: int = 0
    uncompressed_bytes: int = 0
    record_sizes: List[int] = field(default_factory=list)

    @property
    def compression_rate(self) -> float:
        """Fraction of space saved by compression (the paper's ~60%)."""
        if not self.uncompressed_bytes:
            return 0.0
        return 1.0 - self.compressed_bytes / self.uncompressed_bytes


@dataclass
class CollectionIndex:
    """An indexed collection: dictionary + documents + inverted file."""

    fs: SimFileSystem
    dictionary: HashDictionary
    doctable: DocTable
    store: InvertedFileStore
    stats: IndexStats
    stopwords: frozenset = frozenset()
    stem_fn: Callable[[str], str] = default_stem
    #: Doc ids deleted but not yet folded out of the records.  Engines
    #: filter these at postings-decode time; compaction rewrites the
    #: affected records and clears the set (see ``fold_tombstones``).
    tombstones: set = field(default_factory=set)

    def term_entry(self, raw_term: str):
        """Dictionary entry for a raw (unstemmed) term, or ``None``.

        Routed through :func:`~repro.inquery.normalize.normalize_term`,
        the same pipeline the builder and the serving cache key use, so
        a query-time lookup can never drift from what was indexed.
        """
        token = normalize_term(raw_term, self.stopwords, self.stem_fn)
        if token is None:
            return None
        return self.dictionary.lookup(token)

    _STATS = struct.Struct("<QQQQQ")

    def save(self) -> None:
        """Persist the dictionary, document table, and scalar statistics."""
        for name, saver in (
            ("index.dict", self.dictionary.save),
            ("index.docs", self.doctable.save),
        ):
            file = self.fs.open(name) if self.fs.exists(name) else self.fs.create(name)
            saver(file)
        stats_name = "index.stats"
        stats_file = (
            self.fs.open(stats_name)
            if self.fs.exists(stats_name)
            else self.fs.create(stats_name)
        )
        stats_file.write(0, self._STATS.pack(
            self.stats.documents,
            self.stats.postings,
            self.stats.records,
            self.stats.compressed_bytes,
            self.stats.uncompressed_bytes,
        ))
        tomb_name = "index.tomb"
        if self.tombstones or self.fs.exists(tomb_name):
            tomb_file = (
                self.fs.open(tomb_name)
                if self.fs.exists(tomb_name)
                else self.fs.create(tomb_name)
            )
            doc_ids = sorted(self.tombstones)
            tomb_file.truncate(0)
            tomb_file.write(
                0, struct.pack(f"<I{len(doc_ids)}I", len(doc_ids), *doc_ids)
            )
        self.store.flush()

    @classmethod
    def open(
        cls,
        fs: SimFileSystem,
        store: InvertedFileStore,
        stopwords: Iterable[str] = (),
        stem_fn: Callable[[str], str] = default_stem,
    ) -> "CollectionIndex":
        """Bind a previously saved index: the fresh-process open path.

        ``store`` must be constructed over the same file system with the
        same backend configuration the index was built with (backend
        choice is application configuration, as with Mneme pools).
        Per-record sizes are not persisted; the restored ``stats`` holds
        the scalar totals only.

        A v1 or v2 platter stores its records in the interleaved body
        (:mod:`repro.inquery.interleaved`).  Opening one rewrites every
        record, and every chunk of every chain, once and in place with
        the columnar body of the same length, then saves the dictionary
        as v3.
        """
        dictionary = HashDictionary.load(fs.open("index.dict"))
        if dictionary.version < HashDictionary.version:
            _columnar_bodies(dictionary, store)
            dictionary.save(fs.open("index.dict"))
        doctable = DocTable.load(fs.open("index.docs"))
        stats = IndexStats()
        if fs.exists("index.stats"):
            raw = fs.open("index.stats").read(0, cls._STATS.size)
            (stats.documents, stats.postings, stats.records,
             stats.compressed_bytes, stats.uncompressed_bytes) = cls._STATS.unpack(raw)
        tombstones: set = set()
        if fs.exists("index.tomb"):
            tomb_file = fs.open("index.tomb")
            raw = tomb_file.read(0, tomb_file.size)
            (count,) = struct.unpack_from("<I", raw, 0)
            tombstones = set(struct.unpack_from(f"<{count}I", raw, 4))
        return cls(
            fs=fs,
            dictionary=dictionary,
            doctable=doctable,
            store=store,
            stats=stats,
            stopwords=frozenset(stopwords),
            stem_fn=stem_fn,
            tombstones=tombstones,
        )


def _columnar_bodies(dictionary: HashDictionary, store: InvertedFileStore) -> None:
    """Rewrite an old platter's interleaved records as columnar ones,
    in storage-key order so each physical segment is parsed once."""
    stored = [e for e in dictionary.entries() if e.storage_key != 0]
    for entry in sorted(stored, key=lambda e: e.storage_key):
        store.rewrite_in_place(entry.storage_key, to_columnar)
    store.flush()


class IndexBuilder:
    """Builds a :class:`CollectionIndex` with an external-sort pipeline.

    Parameters
    ----------
    fs, store:
        The simulated file system and the storage backend to populate.
    stopwords:
        Terms to drop.  Synthetic workloads usually pass an empty set.
    stem_fn:
        Token normalizer; pass ``str`` (identity) to disable stemming.
    run_limit:
        In-memory posting-triple budget before a sorted run is spilled.
    """

    def __init__(
        self,
        fs: SimFileSystem,
        store: InvertedFileStore,
        stopwords: Iterable[str] = (),
        stem_fn: Callable[[str], str] = default_stem,
        run_limit: int = 500_000,
    ):
        if run_limit < 1:
            raise IndexError_("run_limit must be positive")
        self._fs = fs
        self._store = store
        self._stopwords = frozenset(stopwords)
        self._stem = stem_fn
        self._run_limit = run_limit
        self._dictionary = HashDictionary()
        self._doctable = DocTable()
        self._current: List[Tuple[int, int, int]] = []  # (term id, doc, position)
        self._runs: List[List[Tuple[int, int, int]]] = []
        self._finalized = False

    def add_document(self, document: Document) -> None:
        """Tokenize, normalize, and accumulate one document's postings."""
        if self._finalized:
            raise IndexError_("builder already finalized")
        tokens = document.term_stream(tokenize)
        kept = 0
        for position, token in enumerate(tokens):
            normalized = normalize_term(token, self._stopwords, self._stem)
            if normalized is None:
                continue
            entry = self._dictionary.add(normalized)
            self._current.append((entry.term_id, document.doc_id, position))
            kept += 1
        self._doctable.add(document.doc_id, kept, document.name)
        if len(self._current) >= self._run_limit:
            self._spill()

    def add_documents(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add_document(document)

    def _spill(self) -> None:
        """Close the current run: sort by (term id, doc id, position)."""
        if self._current:
            self._current.sort()
            self._runs.append(self._current)
            self._current = []

    def _merged_records(
        self, stats: IndexStats, max_tf: Dict[int, int]
    ) -> Iterator[Tuple[int, bytes]]:
        """K-way merge of runs, grouped into one encoded record per term.

        ``max_tf`` collects each term's largest within-document frequency
        as documents close — the pruning bound metadata, gathered in the
        same pass that encodes the records.
        """
        merged = heapq.merge(*self._runs)
        term_id = None
        postings: List[Posting] = []
        doc_id = None
        positions: List[int] = []

        def close_doc():
            if doc_id is not None:
                postings.append((doc_id, tuple(positions)))
                if len(positions) > max_tf.get(term_id, 0):
                    max_tf[term_id] = len(positions)

        def close_term():
            close_doc()
            if term_id is not None and postings:
                record = encode_record(postings)
                stats.records += 1
                stats.compressed_bytes += len(record)
                stats.uncompressed_bytes += uncompressed_size(postings)
                stats.record_sizes.append(len(record))
                yield term_id, record

        for tid, doc, position in merged:
            stats.postings += 1
            if tid != term_id:
                yield from close_term()
                term_id, postings = tid, []
                doc_id, positions = doc, [position]
            elif doc != doc_id:
                close_doc()
                doc_id, positions = doc, [position]
            else:
                positions.append(position)
        yield from close_term()

    def finalize(self) -> CollectionIndex:
        """Sort-merge everything into the store and bind the index."""
        if self._finalized:
            raise IndexError_("builder already finalized")
        self._finalized = True
        self._spill()
        stats = IndexStats(documents=len(self._doctable))
        max_tf: Dict[int, int] = {}
        keys = self._store.bulk_build(self._merged_records(stats, max_tf))
        by_id = self._dictionary.by_id()
        bounds_keys = self._store.chunk_bounds_keys
        # Push per-term statistics back into the dictionary.
        for entry in self._dictionary.entries():
            entry.storage_key = keys.get(entry.term_id, 0)
            entry.max_tf = max_tf.get(entry.term_id, 0)
            entry.bounds_key = bounds_keys.get(entry.storage_key, 0)
        self._recount_stats(by_id)
        index = CollectionIndex(
            fs=self._fs,
            dictionary=self._dictionary,
            doctable=self._doctable,
            store=self._store,
            stats=stats,
            stopwords=self._stopwords,
            stem_fn=self._stem,
        )
        index.save()
        return index

    #: Below this many triples the dict scan beats numpy's setup cost.
    _RECOUNT_ARRAY_MIN = 4096

    def _recount_stats(self, by_id: Dict[int, object]) -> None:
        """Recompute df/ctf per term from the runs (single pass)."""
        total = sum(len(run) for run in self._runs)
        if _fastpath.ENABLED and total >= self._RECOUNT_ARRAY_MIN:
            self._recount_stats_arrays(by_id)
            return
        df: Dict[int, int] = {}
        ctf: Dict[int, int] = {}
        last: Dict[int, int] = {}
        for run in self._runs:
            for term_id, doc_id, _position in run:
                ctf[term_id] = ctf.get(term_id, 0) + 1
                if last.get(term_id) != doc_id:
                    df[term_id] = df.get(term_id, 0) + 1
                    last[term_id] = doc_id
        for term_id, entry in by_id.items():
            entry.df = df.get(term_id, 0)
            entry.ctf = ctf.get(term_id, 0)

    def _recount_stats_arrays(self, by_id: Dict[int, object]) -> None:
        """Vectorized recount: same per-term counts as the dict scan.

        A stable sort by term id preserves run order within each term,
        so counting rows whose doc id differs from the previous row of
        the same term reproduces the scan's ``last.get(term_id) !=
        doc_id`` transitions exactly.
        """
        import numpy as np

        chunks = [np.asarray(run, dtype=np.int64) for run in self._runs if run]
        triples = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        terms = triples[:, 0]
        docs = triples[:, 1]
        order = np.argsort(terms, kind="stable")
        t_sorted = terms[order]
        d_sorted = docs[order]
        new_doc = np.empty(t_sorted.size, dtype=np.int64)
        new_doc[0] = 1
        new_doc[1:] = (
            (t_sorted[1:] != t_sorted[:-1]) | (d_sorted[1:] != d_sorted[:-1])
        )
        uniq, ctf_counts = np.unique(t_sorted, return_counts=True)
        starts = np.searchsorted(t_sorted, uniq)
        df_counts = np.add.reduceat(new_doc, starts)
        df = dict(zip(uniq.tolist(), df_counts.tolist()))
        ctf = dict(zip(uniq.tolist(), ctf_counts.tolist()))
        for term_id, entry in by_id.items():
            entry.df = df.get(term_id, 0)
            entry.ctf = ctf.get(term_id, 0)


def _term_positions(index: CollectionIndex, document: Document) -> Dict[str, List[int]]:
    """Normalized term -> token positions of one document."""
    by_term: Dict[str, List[int]] = {}
    for position, token in enumerate(document.term_stream(tokenize)):
        normalized = normalize_term(token, index.stopwords, index.stem_fn)
        if normalized is not None:
            by_term.setdefault(normalized, []).append(position)
    return by_term


def check_addable(index: CollectionIndex, documents: Sequence[Document]) -> None:
    """Raise unless every document of a batch can be added to ``index``.

    Checked for the whole batch before anything is written: an id that
    is already indexed, repeated within the batch, or tombstoned (its
    dead postings are still in the records until compaction) rejects
    the batch.
    """
    seen = set()
    for document in documents:
        doc_id = document.doc_id
        if doc_id in index.doctable or doc_id in seen:
            raise IndexError_(f"document id {doc_id} already indexed")
        if doc_id in index.tombstones:
            raise IndexError_(
                f"document id {doc_id} is tombstoned; "
                "compact before reusing the id"
            )
        seen.add(doc_id)


def add_documents_incremental(
    index: CollectionIndex,
    documents: Sequence[Document],
    seed_stats: Optional[Callable[[str], Optional[Tuple[int, int]]]] = None,
) -> List[Dict[str, int]]:
    """Add a batch of documents to an existing index, one pass per term.

    This is the operation the paper says classic INQUERY does *not*
    support ("addition or deletion of a single document ... requires the
    entire document collection to be re-indexed") and that a persistent
    object store makes tractable.  The batch is the unit of work: each
    document is tokenized once, postings are grouped by term, and every
    distinct term costs one grow-a-record call
    (:meth:`~repro.inquery.invfile.InvertedFileStore.append_postings`,
    which reads the record once and may relocate it — the dictionary
    entry follows) and one bound refresh, however many of the batch's
    documents mention it.  Dictionary entries are looked up or added in
    term order (term ids do not depend on the store); records that
    already exist then grow in storage-key order, the order the store
    laid them out in, so each physical segment is loaded once per batch
    instead of once per record that hashes near it; fresh records are
    created after them, in term order.  One ``store.flush()`` at the
    end writes the open segments and
    tables out (through the write-ahead log, when one is attached):
    nothing earlier would survive a crash anyway, since recovery
    discards whatever follows the last epoch marker.

    ``seed_stats`` gives the ``(df, ctf)`` a term new to this dictionary
    starts from (a shard's dictionary carries *global* statistics).
    Returns each document's term -> within-document frequency.
    """
    check_addable(index, documents)
    by_term: Dict[str, List[Posting]] = {}
    term_tfs: List[Dict[str, int]] = []
    for document in documents:
        positions_of = _term_positions(index, document)
        tfs = {term: len(positions) for term, positions in positions_of.items()}
        index.doctable.add(document.doc_id, sum(tfs.values()), document.name)
        for term, positions in positions_of.items():
            by_term.setdefault(term, []).append((document.doc_id, tuple(positions)))
        term_tfs.append(tfs)
    store = index.store
    grown: List[Tuple[TermEntry, List[Posting]]] = []
    fresh: List[Tuple[TermEntry, List[Posting]]] = []
    for term, postings in sorted(by_term.items()):
        postings.sort()
        entry = index.dictionary.lookup(term)
        if entry is None:
            entry = index.dictionary.add(term)
            seed = seed_stats(term) if seed_stats is not None else None
            if seed is not None:
                entry.df, entry.ctf = seed
        (fresh if entry.storage_key == 0 else grown).append((entry, postings))
    grown.sort(key=lambda item: item[0].storage_key)
    for entry, postings in grown + fresh:
        fresh_record = entry.storage_key == 0
        # Bound maintenance is a max-merge — but only when the old bound
        # was known.  A record inherited from a pre-bounds index carries
        # max_tf == 0 ("unknown"); max-merging the new documents into an
        # unknown would understate the true ceiling, so unknown stays
        # unknown (and the term keeps evaluating exhaustively).  A term
        # no live document mentions has a known ceiling of zero.
        bound_known = fresh_record or entry.df == 0 or entry.max_tf > 0
        if fresh_record:
            entry.storage_key = store.add_record(entry.term_id, encode_record(postings))
            entry.bounds_key = store.refresh_bounds(entry.storage_key, entry.bounds_key)
        else:
            entry.storage_key, entry.bounds_key = store.append_postings(
                entry.storage_key, postings, entry.bounds_key
            )
        entry.df += len(postings)
        entry.ctf += sum(len(positions) for _doc, positions in postings)
        if bound_known:
            entry.max_tf = max(
                entry.max_tf, max(len(positions) for _doc, positions in postings)
            )
        index.dictionary.touch(entry)
    index.stats.documents += len(documents)
    index.stats.postings += sum(sum(tfs.values()) for tfs in term_tfs)
    store.flush()
    return term_tfs


class DeleteCheck:
    """A dry run of tombstone deletes, one after another.

    :meth:`check` raises what :func:`tombstone_document_incremental`
    would raise on the same sequence of deletes, and changes nothing:
    each document must be live and not tombstoned, its token stream must
    have its indexed length, and every term it mentions must be in the
    dictionary with a df the deletes before it have not used up.  A
    batch checks all its deletes before it writes anything.

    ``after`` stands for adds of the same batch that are not written
    yet (an ingest applies adds first, and may not delete what it
    adds).  Adds only add terms and df, so it is asked only when the
    index as it stands says no: ``after.df(index, term, entry)`` is the
    df ``term`` will have in ``index`` (``None``: no entry).
    """

    def __init__(self, after=None):
        self.after = after
        self.gone: set = set()  #: documents deleted earlier in the run
        self.taken: Dict[str, int] = {}  #: term -> earlier deletes of it

    def check(
        self, index: CollectionIndex, document: Document
    ) -> List[Tuple[str, int, Optional[TermEntry]]]:
        """Check one delete and count it; returns ``(term, tf, entry)``
        for every term it mentions, in term order."""
        doc_id = document.doc_id
        length = None if doc_id in self.gone else index.doctable.lengths.get(doc_id)
        if length is None:
            raise IndexError_(f"unknown document id {doc_id}")
        if doc_id in index.tombstones:
            raise IndexError_(f"document id {doc_id} already tombstoned")
        by_term = _term_positions(index, document)
        kept = sum(map(len, by_term.values()))
        if kept != length:
            raise IndexError_(
                f"document {doc_id} token stream does not match the indexed "
                f"length ({kept} != {length})"
            )
        terms = []
        for term in sorted(by_term):
            entry = index.dictionary.lookup(term)
            taken = self.taken.get(term, 0)
            df = None if entry is None else entry.df
            if (df is None or df <= taken) and self.after is not None:
                df = self.after.df(index, term, entry)
            if df is None or df <= taken:
                raise IndexError_(
                    f"document {doc_id} mentions {term!r}, which the "
                    "dictionary does not carry — wrong document supplied?"
                )
            terms.append((term, len(by_term[term]), entry))
        for term, _tf, _entry in terms:
            self.taken[term] = self.taken.get(term, 0) + 1
        self.gone.add(doc_id)
        return terms


def tombstone_document_incremental(index: CollectionIndex, document: Document) -> int:
    """Delete one document *logically*: mark it dead, touch no records.

    This is the delete half of the paper's incremental-update story:
    instead of rewriting every record that mentions the document, the
    doc id joins the index's tombstone set and the engines filter it
    out at postings-decode time.  The caller supplies the
    :class:`Document` (synthetic corpora can regenerate it
    deterministically) so the per-term ``df``/``ctf`` dictionary
    statistics — which DAAT and the pruning engine read instead of
    decoded postings — can be adjusted exactly without a single record
    fetch.  ``max_tf`` and the chunk-bound sidecars are
    left stale-*high*, which is admissible: an overestimated ceiling can
    never over-prune.  Compaction (``fold_tombstones``) later rewrites
    the records and recomputes exact bounds.  Nothing is written to the
    store: the change lives in the dictionary, document table and
    tombstone set until the epoch's ``index.save`` flushes them.  The
    whole delete is checked (:class:`DeleteCheck`) before any of it is
    applied, so a rejected delete changes nothing.

    Returns the number of distinct terms whose statistics were adjusted.
    """
    terms = DeleteCheck().check(index, document)
    for _term, tf, entry in terms:
        entry.df -= 1
        entry.ctf -= tf
        index.dictionary.touch(entry)
    kept = index.doctable.length_of(document.doc_id)
    index.doctable.remove(document.doc_id)
    index.tombstones.add(document.doc_id)
    index.stats.documents -= 1
    index.stats.postings -= kept
    return len(terms)


def fold_tombstones(index: CollectionIndex) -> int:
    """Rewrite every record that still carries a tombstoned posting.

    The physical half of the tombstone delete, run at compaction time:
    records are fetched, filtered, and written back, and the tombstone
    set empties — after which the deleted doc ids may be reused.  The
    drop reads every kept tf, so a rewritten entry's ``max_tf`` and
    chunk bounds become exact — including for a record whose bound was
    previously unknown (this *upgrades* it to prunable).  Records are
    visited in storage-key order, which is the order the store laid
    them out in, so each physical segment is read and parsed once
    instead of once per record that hashes near it in the dictionary,
    and the fetched bytes go on to the rewrite, so each record is read
    once.
    Returns the number of records rewritten.
    """
    if not index.tombstones:
        return 0
    rewritten = 0
    stored = [e for e in index.dictionary.entries() if e.storage_key != 0]
    for entry in sorted(stored, key=lambda e: e.storage_key):
        record = index.store.fetch(entry.storage_key)
        dropped = drop_documents(record, index.tombstones)
        if dropped is None:
            continue
        kept, entry.max_tf = dropped
        entry.storage_key = index.store.update_record(
            entry.storage_key, kept, record
        )
        entry.bounds_key = index.store.refresh_bounds(
            entry.storage_key, entry.bounds_key
        )
        index.dictionary.touch(entry)
        rewritten += 1
    index.tombstones = set()
    index.store.flush()
    return rewritten
