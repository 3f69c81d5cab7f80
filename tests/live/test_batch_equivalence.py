"""Property tests: a batch is only a unit of work, never of meaning.

However an add/delete sequence is cut into ``IngestPipeline.apply``
batches — one call, one document per call, anything between — the
index must end in the same observable state: document table,
tombstones, per-term ``df``/``ctf``/``max_tf``, term-at-a-time and
pruned document-at-a-time rankings; and that state must match an
:class:`~repro.inquery.IndexBuilder` rebuild of the final corpus, with
every stored bound admissible.  Checked on the B-tree, Mneme and linked
backends, flat and on 2 shards x 2 replicas (where the replica platters
are block-compared after every epoch by the pipeline itself).

The linked configuration shrinks the pool thresholds so the tiny
collection's records are multi-chunk chains: batches land on the
tail-append path, overflow it, and (ids added out of order) fall back to
the whole-record rewrite.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import materialize
from repro.core.config import config_by_name
from repro.errors import IndexError_
from repro.inquery import DEFAULT_TOP_K, DocumentAtATimeEngine, RetrievalEngine
from repro.inquery.postings import decode_record
from repro.live import IngestPipeline, fresh_flat_index

from .test_bounds_audit import assert_bounds_admissible
from .test_write_counts import assert_sidecar_matches_chain

CONFIGS = {
    "btree": config_by_name("btree"),
    "mneme-cache": config_by_name("mneme-cache", use_wal=True),
    "mneme-linked": config_by_name(
        "mneme-linked", use_wal=True, medium_max_bytes=64, chunk_bytes=96
    ),
}
#: ``fresh_flat_index`` rebuilds on Mneme; rankings do not depend on the
#: backend, so the B-tree systems are checked against that rebuild too.
REBUILD_CONFIG = {"btree": CONFIGS["mneme-cache"]}
TOPOLOGIES = {"flat": {}, "2x2": dict(shards=2, replicas=1)}

#: New documents a sequence may add (ids follow the base collection).
NEW_DOCS = 7


@st.composite
def sequences(draw):
    """(ops, cuts): an add/delete sequence and where to cut it into batches.

    Adds take fresh ids in a drawn (not ascending) order, so some
    postings do not follow their record's last document; a delete names
    any document live at that point — base, or added earlier.
    """
    add_order = draw(st.permutations(range(1, NEW_DOCS + 1)))
    n_ops = draw(st.integers(min_value=2, max_value=NEW_DOCS + 3))
    ops, added, deleted = [], [], set()
    for _ in range(n_ops):
        if len(added) < NEW_DOCS and draw(st.booleans()):
            ops.append(("add", add_order[len(added)]))
            added.append(add_order[len(added)])
        else:
            # Negative: the i-th base document; positive: an added one.
            live_added = [j for j in added if j not in deleted]
            choices = [-i for i in range(1, 13) if -i not in deleted] + live_added
            target = draw(st.sampled_from(choices))
            deleted.add(target)
            ops.append(("delete", target))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=len(ops) - 1)))
    return ops, sorted(cuts)


def split(ops, cuts):
    """Cut ``ops`` at ``cuts`` — and before a delete of a document its own
    batch added, which ``EpochManager.publish`` refuses by contract."""
    batches, batch = [], []
    for position, op in enumerate(ops):
        added_here = op[0] == "delete" and ("add", op[1]) in batch
        if batch and (position in cuts or added_here):
            batches.append(batch)
            batch = []
        batch.append(op)
    return batches + [batch]


def apply_batches(backend, corpus, batches):
    pipeline = IngestPipeline(backend)

    def document(op):
        offset = op[1]
        doc_id = corpus.base_count + offset if offset > 0 else -offset
        return corpus.document(doc_id)

    for batch in batches:
        # A batch applies its adds first; a delete never precedes the
        # add of the same id (ids are not reused), so order is kept.
        pipeline.apply(
            adds=[document(op) for op in batch if op[0] == "add"],
            deletes=[document(op) for op in batch if op[0] == "delete"],
        )
    return pipeline


def machines_of(backend):
    groups = getattr(backend, "replica_groups", None)
    if groups is None:
        return [backend]
    return [machine for group in groups for machine in group]


def observable_state(backend):
    """What batching must not change, per machine."""
    state = []
    for machine in machines_of(backend):
        index = machine.index
        state.append({
            "docs": {d: index.doctable.length_of(d) for d in index.doctable.doc_ids()},
            "tombstones": set(index.tombstones),
            "terms": {
                e.term: (e.df, e.ctf, e.max_tf)
                for e in index.dictionary.entries()
            },
            "stats": (index.stats.documents, index.stats.postings),
        })
    return state


def rankings(backend, queries, engine, prune="off"):
    if hasattr(backend, "replica_groups"):
        outcome = backend.scheduler(
            top_k=DEFAULT_TOP_K, engine=engine, prune=prune
        ).run_wave(list(queries))
        return [r.ranking for r in outcome.results]
    if engine == "daat":
        runner = DocumentAtATimeEngine(backend.index, top_k=DEFAULT_TOP_K, prune=prune)
    else:
        runner = RetrievalEngine(backend.index, top_k=DEFAULT_TOP_K)
    return [runner.run_query(text).ranking for text in queries]


def audit_bounds(index, global_df):
    """Every stored ceiling dominates the live postings it covers, the
    dictionary's df counts them, and a chained record's sidecar equals
    one rebuilt from its chunks on disk.
    ``global_df``: the dictionary counts documents of other shards too."""
    assert_bounds_admissible(index)
    for entry in index.dictionary.entries():
        if entry.storage_key == 0 or entry.df == 0:
            continue
        if not global_df:
            postings = decode_record(index.store.fetch(entry.storage_key))
            live = [doc for doc, _p in postings if doc not in index.tombstones]
            assert len(live) == entry.df, entry.term
        if entry.bounds_key:
            assert_sidecar_matches_chain(index.store, entry)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("config_name", CONFIGS)
@settings(max_examples=12, deadline=None)
@given(sequence=sequences())
def test_any_batching_is_one_document_per_batch_is_a_rebuild(
    prepared, corpus, queries, daat_queries, config_name, topology, sequence
):
    ops, cuts = sequence
    config = CONFIGS[config_name]

    def run(batches):
        backend = materialize(prepared, config, **TOPOLOGIES[topology])
        return backend, apply_batches(backend, corpus, batches)

    batched, pipeline = run(split(ops, cuts))
    single, _ = run([[op] for op in ops])
    assert observable_state(batched) == observable_state(single)
    taat = rankings(batched, queries, "taat")
    pruned = rankings(batched, daat_queries, "daat", prune="auto")
    assert taat == rankings(single, queries, "taat")
    assert pruned == rankings(single, daat_queries, "daat", prune="auto")

    live_docs = corpus.documents_for(pipeline.epochs.live_docs())
    rebuilt = fresh_flat_index(REBUILD_CONFIG.get(config_name, config), live_docs)
    assert taat == rankings(rebuilt, queries, "taat")
    assert pruned == rankings(rebuilt, daat_queries, "daat")
    for machine in machines_of(batched):
        index = machine.index
        assert sorted(index.doctable.doc_ids()) == [d.doc_id for d in live_docs]
        for entry in rebuilt.index.dictionary.entries():
            mine = index.dictionary.lookup(entry.term)
            if mine is not None:  # a shard carries only the terms it stores
                assert (mine.df, mine.ctf) == (entry.df, entry.ctf), entry.term
        audit_bounds(index, global_df=topology != "flat")


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bad_ids_reject_the_batch_before_anything_is_written(
    prepared, corpus, topology
):
    config = CONFIGS["mneme-linked"]
    backend = materialize(prepared, config, **TOPOLOGIES[topology])
    pipeline = IngestPipeline(backend)
    victim = corpus.document(3)
    pipeline.apply(deletes=[victim])
    fresh = corpus.new_documents(4, after=corpus.base_count)

    def image():
        return (
            observable_state(backend),
            [dict(machine.fs.disk._blocks) for machine in machines_of(backend)],
        )

    before = image()
    for bad_batch in (
        fresh + [fresh[1]],             # an id twice in one batch
        fresh + [victim],               # a tombstoned id
        fresh + [corpus.document(5)],   # an id already indexed
    ):
        with pytest.raises(IndexError_):
            pipeline.apply(adds=bad_batch)
        assert image() == before
    assert pipeline.epochs.epoch == 1
