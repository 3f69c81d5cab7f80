"""Bounds-sidecar audit: mutations must never make pruning inadmissible.

The pruning engine trusts two per-term ceilings: the dictionary's
``max_tf`` and the chunk-bounds sidecar.  The audit of every mutation
path concluded:

* ``add_documents_incremental`` max-merges the new documents' tfs into a
  *known* bound and refreshes the sidecar from the rewritten record, so
  the bound stays exact-or-high.  An *unknown* bound (``max_tf == 0``)
  stays unknown — it must never be "upgraded" from one document's tf,
  which would be an under-estimate.
* ``tombstone_document_incremental`` touches no record, leaving bounds
  stale-HIGH over the filtered postings — admissible by construction
  (a too-high bound can only under-prune, never over-prune).
* ``fold_tombstones`` decodes every affected record anyway, so it
  restores exact bounds and refreshes the sidecar.

These tests pin each of those conclusions: after any mutation mix, the
stored bound dominates the true live maximum, and pruned rankings stay
bit-identical to exhaustive evaluation.
"""

import pytest

from repro.inquery import (
    Document,
    DocumentAtATimeEngine,
    add_documents_incremental,
    fold_tombstones,
    tombstone_document_incremental,
)
from repro.inquery.postings import decode_record

from .test_tombstones import CORPUS, QUERIES, build, docs, rankings


def live_max_tf(index, term):
    """The true ceiling over the term's *live* (unfiltered) postings."""
    entry = index.dictionary.lookup(term)
    if entry is None or entry.storage_key == 0:
        return 0
    postings = decode_record(index.store.fetch(entry.storage_key))
    return max(
        (len(p) for doc, p in postings if doc not in index.tombstones),
        default=0,
    )


def assert_bounds_admissible(index):
    for entry in index.dictionary.entries():
        if entry.max_tf == 0:
            continue  # unknown: the engine never prunes on it
        assert entry.max_tf >= live_max_tf(index, entry.term), entry.term


def assert_pruning_exact(index):
    for query in QUERIES:
        exhaustive = DocumentAtATimeEngine(index, top_k=10).run_query(query)
        pruned = DocumentAtATimeEngine(
            index, top_k=10, prune="auto"
        ).run_query(query)
        assert pruned.ranking == exhaustive.ranking, query


@pytest.mark.parametrize("linked", [False, True])
def test_mutation_mix_keeps_bounds_admissible(linked):
    documents = docs()
    index = build(documents, linked=linked)
    # Interleave every mutation kind.
    add_documents_incremental(index, [Document(7, tokens=["t0", "t0", "t0", "t1"])])
    tombstone_document_incremental(index, documents[0])  # doc 1 had t0 x3
    add_documents_incremental(index, [Document(8, tokens=["t6", "t2"])])
    tombstone_document_incremental(index, documents[3])  # doc 4 had t6 x3
    assert_bounds_admissible(index)
    assert_pruning_exact(index)
    # Folding restores *exact* ceilings, still bit-identical.
    before = rankings(index, QUERIES)
    fold_tombstones(index)
    for entry in index.dictionary.entries():
        assert entry.max_tf == live_max_tf(index, entry.term), entry.term
    assert rankings(index, QUERIES) == before


def test_tombstone_leaves_bounds_stale_high_never_low():
    """Deleting the max-tf document leaves the old (higher) ceiling."""
    documents = docs()
    index = build(documents)
    entry = index.dictionary.lookup("t0")
    assert entry.max_tf == 3  # doc 1 carries t0 three times
    tombstone_document_incremental(index, documents[0])
    assert index.dictionary.lookup("t0").max_tf == 3  # stale
    assert live_max_tf(index, "t0") < 3               # truth shrank
    assert_bounds_admissible(index)
    assert_pruning_exact(index)


def test_incremental_add_never_invents_a_bound():
    """An unknown bound must stay unknown through an incremental add.

    If the add "initialised" max_tf from the new document alone, a term
    whose *existing* postings carry a higher tf would get an
    inadmissible (too-low) ceiling and pruning could drop a true top-k
    document.
    """
    documents = docs()
    index = build(documents)
    victim = index.dictionary.lookup("t0")
    victim.max_tf = 0  # simulate a legacy index with no recorded bound
    add_documents_incremental(index, [Document(7, tokens=["t0"])])
    assert index.dictionary.lookup("t0").max_tf == 0
    assert_pruning_exact(index)


def test_remove_recomputes_exact_bounds():
    documents = docs()
    index = build(documents)
    tombstone_document_incremental(index, documents[0])
    fold_tombstones(index)  # decode-rewrite path
    for term in ("t0", "t1", "t2"):
        entry = index.dictionary.lookup(term)
        assert entry.max_tf == live_max_tf(index, term), term
    assert_pruning_exact(index)
