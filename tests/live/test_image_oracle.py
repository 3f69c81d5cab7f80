"""Property test: the saved dictionary and document table stay exact.

After its first save, a dictionary repacks only the chains changed
since (every write to a saved entry calls ``HashDictionary.touch``) and
a document table packs only its new rows.  A flat and a 2x2 WAL-backed
``mneme-linked`` service run random sequences of adds, deletes, mixed
batches, compactions and (2x2) a live split.  After every publish, on
every machine:

* ``index.dict`` and ``index.docs`` hold exactly what the whole-structure
  serializers of ``tests/full_images.py`` write for the live objects;
* ``CollectionIndex.open`` reloads the same entries, rows, tombstones
  and statistics.
"""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.core import materialize
from repro.inquery import CollectionIndex
from repro.serve import QueryService

from ..full_images import dictionary_bytes, doctable_bytes

OPS = ("add", "delete", "mixed", "compact", "split")

steps_st = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 50)), min_size=1, max_size=6
)


def _entries(dictionary):
    return {
        e.term: (e.term_id, e.df, e.ctf, e.storage_key, e.max_tf, e.bounds_key)
        for e in dictionary.entries()
    }


def _file(fs, name):
    handle = fs.open(name)
    return handle.read(0, handle.size)


def check_images(service):
    for machine in service.backend.machines().values():
        index, fs = machine.index, machine.fs
        if not fs.exists("index.dict"):
            continue  # never saved: built (or split) and not mutated since
        assert _file(fs, "index.dict") == dictionary_bytes(index.dictionary)
        assert _file(fs, "index.docs") == doctable_bytes(index.doctable)
        reopened = CollectionIndex.open(
            fs, index.store, stopwords=index.stopwords, stem_fn=index.stem_fn
        )
        assert _entries(reopened.dictionary) == _entries(index.dictionary)
        assert reopened.doctable.lengths == index.doctable.lengths
        assert reopened.doctable.names == index.doctable.names
        assert reopened.tombstones == index.tombstones
        assert dataclasses.astuple(reopened.stats)[:5] == \
            dataclasses.astuple(index.stats)[:5]


def run_steps(service, corpus, steps):
    next_id = corpus.base_count + 1024  # clear of other tests' ids
    for op, pick in steps:
        if op == "compact":
            service.compact()
        elif op == "split":
            if not service.sharded or service.backend.n_shards > 2:
                continue
            service.rebalance(2)
        else:
            live = sorted(service.ingest_pipeline.epochs.live_docs())
            adds = deletes = ()
            if op != "delete":
                adds = corpus.new_documents(1 + pick % 3, after=next_id)
                next_id += len(adds)
            if op != "add":
                deletes = corpus.documents_for(live[pick:][:2])
            service.ingest(adds=adds, deletes=deletes)
        check_images(service)


@given(steps=steps_st)
@example(steps=[("add", 0), ("delete", 3), ("compact", 0), ("mixed", 7)])
@settings(max_examples=8, deadline=None)
def test_flat_images_match_full_serialization(steps, prepared, corpus, config):
    run_steps(QueryService(materialize(prepared, config)), corpus, steps)


@given(steps=steps_st)
@example(steps=[("mixed", 5), ("compact", 0), ("split", 0), ("mixed", 9),
                ("delete", 1), ("compact", 0)])
@settings(max_examples=8, deadline=None)
def test_sharded_images_match_full_serialization(steps, prepared, corpus, config):
    service = QueryService(materialize(prepared, config, shards=2, replicas=1))
    run_steps(service, corpus, steps)
