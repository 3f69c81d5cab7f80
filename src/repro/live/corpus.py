"""Deterministic document sources and stop-the-world rebuilds.

Ingest workloads need two things the synthetic collections do not give
directly: a supply of *new* documents to add (with fresh ids but the
same vocabulary statistics) and the ability to regenerate any document
by id — tombstone deletes take the full document so the dictionary
statistics adjust without record decodes, and the bit-identity gate
rebuilds the corpus of any past epoch from scratch.

:class:`LiveCorpus` provides both, purely deterministically: document
``base_n + j`` carries the token stream of base document ``((j - 1) %
base_n) + 1``, so any run (or re-run, or fresh rebuild) derives the
identical corpus from the collection profile alone.

:func:`fresh_flat_index` is the stop-the-world comparator: a from-
scratch :class:`~repro.inquery.IndexBuilder` build of an arbitrary
document list on a fresh simulated machine.  Sharded rankings are
checked against the same flat rebuild — the PR-4 invariant (sharded
bit-identical to single-disk) composes with this one.
"""

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List

from ..core.config import SystemConfig
from ..core.prepared import fresh_fs, open_store
from ..errors import ConfigError, IndexError_
from ..inquery import (
    DEFAULT_TOP_K,
    CollectionIndex,
    Document,
    DocumentAtATimeEngine,
    IndexBuilder,
    IndexStats,
    RetrievalEngine,
)
from ..simdisk import SimClock, SimFileSystem
from ..synth import SyntheticCollection


class LiveCorpus:
    """Every document an ingest workload can touch, regenerable by id."""

    def __init__(self, collection: SyntheticCollection):
        self.collection = collection
        self._base: Dict[int, Document] = {
            document.doc_id: document
            for document in collection.iter_documents()
        }
        self.base_count = len(self._base)
        self._extra: Dict[int, Document] = {}

    @property
    def base_ids(self) -> List[int]:
        return sorted(self._base)

    def document(self, doc_id: int) -> Document:
        """The document with ``doc_id`` — base or synthesized."""
        if doc_id in self._base:
            return self._base[doc_id]
        if doc_id in self._extra:
            return self._extra[doc_id]
        if doc_id <= self.base_count:
            raise IndexError_(f"unknown document id {doc_id}")
        return self._synthesize(doc_id)

    def _synthesize(self, doc_id: int) -> Document:
        j = doc_id - self.base_count
        source = self._base[((j - 1) % self.base_count) + 1]
        document = Document(
            doc_id=doc_id,
            name=f"{self.collection.profile.name}-live-{doc_id}",
            tokens=source.tokens,
        )
        self._extra[doc_id] = document
        return document

    def new_documents(self, count: int, after: int) -> List[Document]:
        """``count`` fresh documents with ids following ``after``."""
        return [self.document(after + j + 1) for j in range(count)]

    def documents_for(self, doc_ids: Iterable[int]) -> List[Document]:
        """Documents for an epoch's live set, in deterministic id order."""
        return [self.document(doc_id) for doc_id in sorted(doc_ids)]


@dataclass
class RebuiltSystem:
    """A stop-the-world rebuild on its own fresh simulated machine."""

    fs: SimFileSystem
    clock: SimClock
    index: CollectionIndex


def fresh_flat_index(
    config: SystemConfig, documents: List[Document]
) -> RebuiltSystem:
    """Index ``documents`` from scratch — the bit-identity reference.

    The build goes through :class:`~repro.inquery.IndexBuilder` (the
    external-sort pipeline), not the incremental path under test, on a
    fresh machine with the same cost model and Mneme layout.  Buffers
    and WAL are irrelevant to rankings and are left off.
    """
    if config.backend == "btree":
        raise ConfigError("the rebuild comparator uses the Mneme backend")
    fs = fresh_fs(config)
    store, _keys = open_store(fs, replace(config, cached=False, use_wal=False), 0)
    builder = IndexBuilder(fs, store, stopwords=(), stem_fn=str)
    for document in sorted(documents, key=lambda d: d.doc_id):
        builder.add_document(document)
    if not documents:
        # finalize() requires at least one record; an empty corpus has
        # an empty index by construction.
        index = CollectionIndex(
            fs=fs,
            dictionary=builder._dictionary,
            doctable=builder._doctable,
            store=store,
            stats=IndexStats(),
            stopwords=frozenset(),
            stem_fn=str,
        )
        return RebuiltSystem(fs=fs, clock=fs.disk.clock, index=index)
    index = builder.finalize()
    return RebuiltSystem(fs=fs, clock=fs.disk.clock, index=index)


def reference_rankings(
    config: SystemConfig,
    documents: List[Document],
    queries: List[str],
    engine: str = "taat",
    top_k: int = DEFAULT_TOP_K,
    prune: str = "off",
) -> Dict[str, List]:
    """Query-to-ranking map from a stop-the-world rebuild."""
    rebuilt = fresh_flat_index(config, documents)
    if engine == "daat":
        runner = DocumentAtATimeEngine(
            rebuilt.index, top_k=top_k, prune=prune
        )
    elif engine == "taat":
        runner = RetrievalEngine(rebuilt.index, top_k=top_k)
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    return {text: runner.run_query(text).ranking for text in queries}
