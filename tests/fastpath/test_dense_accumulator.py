"""The dense accumulator: whole root tables, not only rankings.

Term-at-a-time fast-path tables are columns over the doc-id space plus a
touched mask (:mod:`repro.fastpath.beliefs`).  The contract is that the
root table *is* the reference network's: the same touched documents,
every belief bit-identical, the same default, and the same simulated
clock — over random trees of all six combination operators with term,
``#syn``, proximity and no-evidence leaves, on a dense and a sparse id
space, with tombstones, flat and through the sharded df exchange.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import config_by_name, materialize, prepare_collection
from repro.fastpath import use_fastpath
from repro.fastpath.beliefs import DenseBeliefs
from repro.fastpath.network import FastInferenceNetwork
from repro.inquery import Document, IndexBuilder, MnemeInvertedFile, RetrievalEngine
from repro.inquery.documents import DocTable
from repro.shard import materialize_sharded
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import CollectionProfile, SyntheticCollection
from repro.synth.vocab import term_string

VOCAB = [f"t{i}" for i in range(6)]
SPARSE_STRIDE = 10 ** 6

corpus_st = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=16),
    min_size=1, max_size=14,
)

# A term the corpus never holds is a no-evidence leaf; an upper-cased
# synonym member normalises onto its lower-case twin.
term_st = st.sampled_from(VOCAB + ["zzz"])
pair_st = st.lists(term_st, min_size=2, max_size=3)
leaf_st = (
    term_st
    | term_st.map(lambda t: f"#syn( {t} {t.upper()} )")
    | st.tuples(st.sampled_from(["#syn", "#phrase", "#uw3", "#od2"]), pair_st)
    .map(lambda op_terms: f"{op_terms[0]}( {' '.join(op_terms[1])} )")
)


def _extend(children):
    plain = st.tuples(
        st.sampled_from(["sum", "and", "or", "max"]),
        st.lists(children, min_size=1, max_size=3),
    ).map(lambda op_kids: f"#{op_kids[0]}( {' '.join(op_kids[1])} )")
    weighted = st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), children),
        min_size=1, max_size=3,
    ).map(lambda pairs: "#wsum( " + " ".join(f"{w} {c}" for w, c in pairs) + " )")
    negated = children.map(lambda child: f"#not( {child} )")
    return plain | weighted | negated


query_st = st.recursive(leaf_st, _extend, max_leaves=6)


def _index(documents):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    builder = IndexBuilder(fs, MnemeInvertedFile(fs), stem_fn=str)
    for doc_id, tokens in documents:
        builder.add_document(Document(doc_id, tokens=tokens))
    return builder.finalize()


def _machines(documents, dead, n_shards):
    """Flat (``n_shards == 1``) or sharded indices, with ``dead`` tombstoned.

    Every shard carries the global document table, as a sharded
    serving view does; only a document's home shard stores its postings
    and its tombstone.
    """
    if n_shards == 1:
        indices = [_index(documents)]
    else:
        indices = [_index(documents[s::n_shards]) for s in range(n_shards)]
        for index in indices:
            index.doctable = DocTable({d: len(tokens) for d, tokens in documents})
    for position, (doc_id, _tokens) in enumerate(documents):
        if doc_id in dead:
            for shard, index in enumerate(indices):
                index.doctable.remove(doc_id)
                if shard == position % n_shards:
                    index.tombstones.add(doc_id)
    return indices


def _root_tables(indices, text):
    """Each machine's root belief table, and its clock afterwards."""
    opened = [RetrievalEngine(index).open_query(text) for index in indices]
    if len(opened) == 1:
        tree, _provider, network = opened[0]
        tables = [network.evaluate(tree)]
    else:
        collected = []
        for tree, provider, network in opened:
            provider.memo = {}  # as the sharded runner reads
            collected.append(network.collect(tree))
        dfs = [sum(local) for local in zip(*[[df for _e, df in c] for c in collected])]
        tables = [
            network.evaluate(tree, slots, dfs)
            for (tree, _provider, network), slots in zip(opened, collected)
        ]
    return tables, [index.fs.disk.clock.time for index in indices]


_charged = FastInferenceNetwork._charged


def _untouched_hold_the_default(network, tables, combined):
    """Every combination's untouched slots hold its scalar default exactly."""
    scores, default = combined
    assert (scores.column[~scores.touched] == default).all()
    return _charged(network, tables, combined)


def _as_dict(table):
    scores, default = table
    if isinstance(scores, DenseBeliefs):
        arrays = scores.to_arrays()
        scores = dict(zip(arrays.doc_ids.tolist(), arrays.beliefs.tolist()))
    return {doc: belief.hex() for doc, belief in scores.items()}, default.hex()


@given(
    corpus=corpus_st, query=query_st,
    sparse=st.booleans(), n_shards=st.sampled_from([1, 2, 3]),
    dead_mask=st.lists(st.booleans(), max_size=14),
)
@settings(max_examples=200, deadline=None)
def test_root_table_is_the_reference_table(corpus, query, sparse, n_shards, dead_mask):
    stride = SPARSE_STRIDE if sparse else 1
    documents = [(stride * (i + 1), tokens) for i, tokens in enumerate(corpus)]
    dead = {doc_id for (doc_id, _t), d in zip(documents, dead_mask) if d}
    outcomes = []
    for fast in (False, True):
        with use_fastpath(fast), mock.patch.object(
            FastInferenceNetwork, "_charged", _untouched_hold_the_default
        ):
            tables, clocks = _root_tables(_machines(documents, dead, n_shards), query)
        if fast:
            assert all(isinstance(scores, DenseBeliefs) for scores, _d in tables)
        outcomes.append(([_as_dict(t) for t in tables], clocks))
    assert outcomes[1] == outcomes[0]
    if n_shards > 1:
        # Each document lives on one shard: the shards' tables partition
        # the single-disk table.
        with use_fastpath(True):
            (flat,), _clocks = _root_tables(_machines(documents, dead, 1), query)
        flat_scores, flat_default = _as_dict(flat)
        merged = {}
        for scores, default in outcomes[1][0]:
            assert default == flat_default
            assert not merged.keys() & scores.keys()
            merged.update(scores)
        assert merged == flat_scores


# -- #syn as an array union ---------------------------------------------------------

TINY = CollectionProfile(
    name="tiny-dense", models="test", documents=120, mean_doc_length=40,
    doc_length_sigma=0.5, vocab_size=400, seed=47,
)
A, B, C = (term_string(rank) for rank in range(3))
SYN_QUERIES = [
    f"#syn( {A} {A.upper()} {B} )",
    f"#and( #syn( {A} {A.upper()} ) {C} )",
    f"#wsum( 2 #syn( {B} {B.upper()} {C} ) 1 {A} )",
    f"#or( #not( #syn( {C} {C.upper()} ) ) #max( {A} #syn( {A} {B} ) ) )",
]


def test_synonym_union_drops_pairs_repeated_by_normalisation():
    prepared = prepare_collection(SyntheticCollection(TINY))
    config = config_by_name("mneme-cache")
    rankings = {}
    for fast in (False, True):
        with use_fastpath(fast):
            flat = RetrievalEngine(materialize(prepared, config).index, top_k=200)
            rankings[fast, 1] = [flat.run_query(q).ranking for q in SYN_QUERIES]
            for n_shards in (2, 3):
                sharded = materialize_sharded(prepared, config, n_shards=n_shards)
                rankings[fast, n_shards] = [
                    r.ranking
                    for r in sharded.scheduler(top_k=200).run_wave(SYN_QUERIES).results
                ]
    assert all(rankings[False, 1])
    # A repeated member doubles nothing: the group scores as its set.
    assert rankings[False, 1][0] == RetrievalEngine(
        materialize(prepared, config).index, top_k=200
    ).run_query(f"#syn( {A} {B} )").ranking
    assert all(ranking == rankings[False, 1] for ranking in rankings.values())
