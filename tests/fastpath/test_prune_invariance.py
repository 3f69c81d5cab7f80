"""Dynamic pruning: bit-identical top-k, honest counters, durable bounds.

The MaxScore engine (:mod:`repro.fastpath.prune`) skips documents and
blocks that provably cannot enter the top-k, so its I/O and CPU
observables legitimately shrink — but the ranking itself must be
*bit-identical* to exhaustive evaluation: same documents, same belief
floats, same tie-break order, at every ``k``, on every backend, with
the fast path on or off (``REPRO_FASTPATH=0`` exercises the pure-Python
reference driver).  These properties check all of that over generated
corpora, plus the metadata's durability: per-term bounds survive
``gc.compact`` and write-ahead-log recovery, and sharded pruned runs
reproduce the single-disk exhaustive rankings.
"""

from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import config_by_name, materialize, prepare_collection
from repro.core.metrics import cold_start
from repro.fastpath import prune, use_fastpath
from repro.faults import FaultEvent, FaultPlan
from repro.inquery import (
    Document,
    DocumentAtATimeEngine,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    MnemeInvertedFile,
    RetrievalEngine,
    tombstone_document_incremental,
)
from repro.inquery.daat import daat_queries
from repro.mneme import RedoLog, compact, recover
from repro.serve.termcache import TermCache
from repro.shard import materialize_sharded, measure_sharded_run
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import (
    CollectionProfile,
    QueryProfile,
    SyntheticCollection,
    generate_query_set,
)

VOCAB = [f"t{i}" for i in range(12)]

corpus_st = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=20),
    min_size=1,
    max_size=25,
)

terms_st = st.lists(st.sampled_from(VOCAB + ["zzz"]), min_size=1, max_size=5)

k_st = st.sampled_from([1, 5, 10, 100])


def build(corpus, linked=False, wal=None):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    if wal is not None:
        wal = RedoLog(fs.create("invfile.wal"))
    if linked:
        store = LinkedMnemeInvertedFile(
            fs, medium_max_bytes=24, chunk_bytes=64, wal=wal
        )
    else:
        store = MnemeInvertedFile(fs, wal=wal)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id, tokens in enumerate(corpus, start=1):
        builder.add_document(Document(doc_id, tokens=tokens))
    return builder.finalize()


def observe(index, query, k, fast, prune):
    with use_fastpath(fast):
        result = DocumentAtATimeEngine(
            index, top_k=k, prune=prune
        ).run_query(query)
    return result


def counters(result):
    return (
        result.documents_scored,
        result.documents_skipped,
        result.blocks_skipped,
        result.prune_threshold_updates,
        result.peak_resident_bytes,
    )


def assert_pruned_invariant(corpus, query, k, linked, fast):
    exhaustive = observe(build(corpus, linked), query, k, fast, "off")
    pruned = observe(build(corpus, linked), query, k, fast, "auto")
    # The contract: same top-k, belief for belief, tie for tie.
    assert pruned.ranking == exhaustive.ranking
    # Exhaustive paths never report pruning work.
    assert not exhaustive.pruned
    assert exhaustive.documents_skipped == 0
    assert exhaustive.blocks_skipped == 0
    assert exhaustive.prune_threshold_updates == 0
    # And the term-at-a-time engine agrees on the ranking itself.
    taat = RetrievalEngine(build(corpus, linked), top_k=k).run_query(query)
    assert pruned.ranking == taat.ranking
    return pruned


@given(corpus=corpus_st, terms=terms_st, k=k_st, linked=st.booleans())
@settings(max_examples=40, deadline=None)
def test_pruned_sum_identical(corpus, terms, k, linked):
    query = "#sum( " + " ".join(terms) + " )"
    assert_pruned_invariant(corpus, query, k, linked, fast=True)


@given(
    corpus=corpus_st,
    terms=terms_st,
    weights=st.lists(st.integers(min_value=1, max_value=7), min_size=5, max_size=5),
    k=k_st,
)
@settings(max_examples=25, deadline=None)
def test_pruned_wsum_identical(corpus, terms, weights, k):
    inner = " ".join(f"{w} {t}" for w, t in zip(weights, terms))
    assert_pruned_invariant(corpus, f"#wsum( {inner} )", k, True, fast=True)


@given(corpus=corpus_st, terms=terms_st, k=k_st, linked=st.booleans())
@settings(max_examples=25, deadline=None)
def test_reference_driver_identical(corpus, terms, k, linked):
    # REPRO_FASTPATH=0 territory: the pure-Python reference driver must
    # satisfy the same contract...
    query = "#sum( " + " ".join(terms) + " )"
    ref = assert_pruned_invariant(corpus, query, k, linked, fast=False)
    # ...and agree with the vectorized driver on every pruning
    # observable, not just the ranking: same documents scored and
    # skipped, same block skips, same threshold updates, same resident
    # peak.  The two drivers are one algorithm in two dialects.
    fast = observe(build(corpus, linked), query, k, True, "auto")
    assert fast.ranking == ref.ranking
    assert counters(fast) == counters(ref)


@given(corpus=corpus_st, term=st.sampled_from(VOCAB), k=k_st)
@settings(max_examples=15, deadline=None)
def test_pruned_single_term_identical(corpus, term, k):
    # Single-term queries: the whole list is essential; pruning can
    # only cut scoring after the heap fills.
    assert_pruned_invariant(corpus, f"#sum( {term} )", k, True, fast=True)


@given(corpus=corpus_st, k=k_st, linked=st.booleans())
@settings(max_examples=10, deadline=None)
def test_pruned_all_missing_terms_identical(corpus, k, linked):
    assert_pruned_invariant(corpus, "#sum( zzz yyy )", k, linked, fast=True)


# -- stride boundaries: both drivers, every observable ------------------------
#
# The corpora above hold at most 25 documents, so with the production
# PRUNE_STRIDE (512) no property ever refreshes a threshold mid-window,
# abandons a window because the partition grew, or meets a fault in the
# middle of a stride.  Patching the stride down to 2-4 candidates makes
# every one of those happen, and the comparison is widened from the
# counters to the whole simulated clock.


def drive(corpus, query, k, fast, stride, linked=True, dead=(), passes=1,
          cached=False, fault_at=None):
    """Run ``query`` ``passes`` times on a fresh, cold index; return every
    observable the two pruned drivers must agree on, bit for bit."""
    index = build(corpus, linked)
    for doc_id in dead:
        tombstone_document_incremental(
            index, Document(doc_id, tokens=corpus[doc_id - 1])
        )
    index.store.mfile.drop_user_caches()
    index.fs.chill()
    clock = index.fs.disk.clock
    clock.reset()
    plan = FaultPlan(
        [] if fault_at is None
        else [FaultEvent("transient-read", at_op=fault_at, times=1 << 20)]
    )
    index.fs.disk.attach_fault_plan(plan)
    rows = []
    with use_fastpath(fast), mock.patch.object(prune, "PRUNE_STRIDE", stride):
        engine = DocumentAtATimeEngine(index, top_k=k, prune="require")
        if cached:
            engine.term_cache = TermCache(1 << 20)
        for _ in range(passes):
            result = engine.run_query(query)
            rows.append((
                result.ranking, counters(result), result.terms_attempted,
                result.terms_failed, result.degraded,
                (clock.time.user_ms, clock.time.system_ms, clock.time.io_ms),
            ))
    return rows, plan.ops["read"], plan.stats.transient_reads


def assert_drivers_agree(corpus, query, k, stride, **shape):
    reference = drive(corpus, query, k, False, stride, **shape)
    fast = drive(corpus, query, k, True, stride, **shape)
    assert fast == reference
    return fast


stride_st = st.integers(min_value=2, max_value=4)


def flat_query(terms, weights):
    if weights is None:
        return "#sum( " + " ".join(terms) + " )"
    return "#wsum( " + " ".join(f"{w} {t}" for w, t in zip(weights, terms)) + " )"


weights_st = st.none() | st.lists(
    st.integers(min_value=1, max_value=7), min_size=5, max_size=5
)


@given(corpus=corpus_st, terms=terms_st, weights=weights_st, k=k_st,
       stride=stride_st, linked=st.booleans())
@settings(max_examples=40, deadline=None)
def test_small_stride_drivers_agree_on_clock(corpus, terms, weights, k, stride,
                                             linked):
    assert_drivers_agree(
        corpus, flat_query(terms, weights), k, stride, linked=linked
    )


@given(corpus=corpus_st, terms=terms_st, k=k_st, stride=stride_st,
       dead=st.sets(st.integers(min_value=1, max_value=25), max_size=6))
@settings(max_examples=30, deadline=None)
def test_small_stride_with_tombstones(corpus, terms, k, stride, dead):
    dead = sorted(d for d in dead if d <= len(corpus))
    assert_drivers_agree(
        corpus, flat_query(terms, None), k, stride, dead=dead
    )


@given(corpus=corpus_st, terms=terms_st, k=k_st, stride=stride_st,
       dead=st.sets(st.integers(min_value=1, max_value=25), max_size=3))
@settings(max_examples=30, deadline=None)
def test_small_stride_with_warm_term_cache_tape(corpus, terms, k, stride, dead):
    # Pass 1 records the block tapes, pass 2 replays them: the decode
    # charges vanish from the charge sequence but nothing else moves.
    dead = sorted(d for d in dead if d <= len(corpus))
    cold, warm = assert_drivers_agree(
        corpus, flat_query(terms, None), k, stride, dead=dead, passes=2,
        cached=True,
    )[0]
    assert warm[:2] == cold[:2]


@given(corpus=corpus_st, terms=terms_st, k=k_st, stride=stride_st,
       fault_at=st.integers(min_value=0, max_value=30), cached=st.booleans())
@settings(max_examples=60, deadline=None)
def test_small_stride_with_bad_block(corpus, terms, k, stride, fault_at, cached):
    assert_drivers_agree(
        corpus, flat_query(terms, None), k, stride, fault_at=fault_at,
        cached=cached,
    )


def test_bad_block_on_non_essential_term_mid_stride():
    """Sweep a stuck read over every disk read of one query.  Somewhere
    in the sweep it lands on a non-essential block in the middle of a
    stride: the term's ceiling drops out of the very next candidate's
    skip test, which the fast driver must honour by re-deciding the rest
    of the stride."""
    query, k, stride = "#sum( t1 t3 t5 t7 )", 3, 4
    _rows, horizon, _fired = drive(DURABLE_CORPUS, query, k, True, stride)
    assert horizon > 4
    cuts = []
    fetch = prune._fetch_non_essential

    def spy(*args):
        columns, decodes, cut = fetch(*args)
        cuts.append(cut)
        return columns, decodes, cut

    degraded = 0
    with mock.patch.object(prune, "_fetch_non_essential", spy):
        for fault_at in range(horizon):
            rows, _reads, fired = assert_drivers_agree(
                DURABLE_CORPUS, query, k, stride, fault_at=fault_at
            )
            assert fired > 0
            degraded += rows[0][4]
    assert degraded > 0
    # The mid-stride death path ran (and not only at a stride's last
    # kept candidate, where there is nothing left to re-decide).
    assert any(cut is not None for cut in cuts)


# -- metadata durability ----------------------------------------------------

DURABLE_CORPUS = [
    [VOCAB[(i + j * j) % len(VOCAB)] for j in range(1 + i % 17)]
    for i in range(60)
]
DURABLE_QUERY = "#sum( t1 t3 t5 )"


def test_bounds_survive_compaction():
    """``gc.compact`` relocates every segment; bounds keys must hold."""
    index = build(DURABLE_CORPUS, linked=True)
    expected = observe(index, DURABLE_QUERY, 5, True, "off").ranking
    before = observe(index, DURABLE_QUERY, 5, True, "require")
    report = compact(index.store.mfile)
    assert report.segments_copied > 0
    after = observe(index, DURABLE_QUERY, 5, True, "require")
    assert after.ranking == expected
    assert after.ranking == before.ranking
    assert counters(after) == counters(before)


def test_bounds_survive_wal_recovery():
    """Replaying the redo log restores postings *and* bound sidecars."""
    index = build(DURABLE_CORPUS, linked=True, wal=True)
    expected = observe(index, DURABLE_QUERY, 5, True, "off").ranking
    before = observe(index, DURABLE_QUERY, 5, True, "require")
    mfile = index.store.mfile
    # Crash: lose the main file body; the redo log restores it.
    image = mfile.main.read(0, mfile.main.size)
    mfile.main.write(16, b"\x00" * (mfile.main.size - 16))
    recover(mfile.wal, mfile.main)
    assert mfile.main.read(0, mfile.main.size) == image
    after = observe(index, DURABLE_QUERY, 5, True, "require")
    assert after.ranking == expected
    assert counters(after) == counters(before)


# -- sharded composition ----------------------------------------------------

TINY = CollectionProfile(
    name="tiny-prune", models="test", documents=220, mean_doc_length=50,
    doc_length_sigma=0.5, vocab_size=2500, seed=43,
)
PRUNE_QUERIES = QueryProfile(
    name="prune-weighted", style="weighted", n_queries=8,
    mean_terms=4, seed=211,
)


@pytest.fixture(scope="module")
def shard_setup():
    collection = SyntheticCollection(TINY)
    prepared = prepare_collection(collection)
    config = config_by_name("mneme-cache")
    queries = daat_queries(
        generate_query_set(collection, PRUNE_QUERIES).queries
    )
    baseline = materialize(prepared, config)
    cold_start(baseline)
    engine = DocumentAtATimeEngine(baseline.index, top_k=10)
    reference = [r.ranking for r in engine.run_batch(queries)]
    return prepared, config, queries, reference


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_pruned_rankings_bit_identical(shard_setup, n_shards):
    prepared, config, queries, reference = shard_setup
    sharded = materialize_sharded(prepared, config, n_shards=n_shards)
    metrics = measure_sharded_run(
        sharded, queries, query_set_name="prune-weighted",
        engine="daat", top_k=10, prune="auto",
    )
    assert [r.ranking for r in metrics.results] == reference
    # The counters must show pruning actually happened somewhere.
    assert metrics.documents_skipped > 0
