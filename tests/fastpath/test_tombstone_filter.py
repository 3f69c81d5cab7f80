"""Property tests: the tombstone probe filter is the reference filter.

``filter_record_arrays`` must drop exactly what ``live_postings`` drops
from the reference decode, hand back a record with no dead document as
the same object, keep a deferred record deferred, and never write into
its (possibly cache-shared) input.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.fastpath.codec import (
    DecodeCache,
    dead_array,
    dead_column_filter,
    decode_record_arrays,
    filter_record_arrays,
)
from repro.inquery.postings import decode_record, encode_record, live_postings

positions_st = st.lists(
    st.integers(min_value=0, max_value=5000), min_size=1, max_size=12,
    unique=True,
).map(sorted)

postings_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2_000), positions_st),
    min_size=1,
    max_size=30,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: [(doc, tuple(pos)) for doc, pos in sorted(pairs)])


@st.composite
def record_and_dead(draw):
    """A record and a dead set: none, some or all of its documents, plus
    ids outside its range."""
    postings = draw(postings_st)
    docs = [doc for doc, _positions in postings]
    kind = draw(st.sampled_from(["none", "some", "all"]))
    if kind == "none":
        dead = set()
    elif kind == "all":
        dead = set(docs)
    else:
        dead = set(draw(st.lists(st.sampled_from(docs), max_size=len(docs))))
    outside = draw(st.lists(
        st.integers(min_value=0, max_value=docs[0] - 1)
        | st.integers(min_value=docs[-1] + 1, max_value=5_000),
        max_size=4,
    ))
    # Gaps between the record's documents are in range but not in it.
    missing = draw(st.lists(
        st.integers(min_value=docs[0], max_value=docs[-1]).filter(
            lambda doc: doc not in set(docs)
        ),
        max_size=3,
    )) if docs[-1] - docs[0] >= len(docs) else []
    return encode_record(postings), dead | set(outside) | set(missing)


def _decoded(record, built):
    arrays = decode_record_arrays(record)
    if built:
        arrays.positions  # force the position columns
    return arrays


def _columns(arrays):
    return (arrays.doc_ids, arrays.tf, arrays._gaps, arrays._positions,
            arrays._pos_starts)


@pytest.mark.parametrize("built", [False, True], ids=["deferred", "built"])
@given(case=record_and_dead())
@settings(max_examples=150, deadline=None)
def test_filter_equals_reference(built, case):
    record, dead = case
    arrays = _decoded(record, built)
    before = [None if column is None else column.copy()
              for column in _columns(arrays)]

    live = filter_record_arrays(arrays, dead_array(dead))

    for column, copy in zip(_columns(arrays), before):
        if copy is not None:
            assert np.array_equal(column, copy)
            assert not column.flags.writeable
    if not set(arrays.doc_ids.tolist()) & dead:
        assert live is arrays
    if not built:
        assert live._gaps is not None  # still deferred
    expected = live_postings(decode_record(record), dead)
    tfs = [len(positions) for _doc, positions in expected]
    assert live.doc_ids.tolist() == [doc for doc, _positions in expected]
    assert live.tf.tolist() == tfs
    assert live.ctf == sum(tfs)
    assert live.to_postings() == expected
    assert live.pos_starts.tolist() == [sum(tfs[:i]) for i in range(len(tfs))]


@given(case=record_and_dead())
@settings(max_examples=100, deadline=None)
def test_column_filter_equals_reference(case):
    record, dead = case
    arrays = decode_record_arrays(record)
    column_filter = dead_column_filter(dead)
    if not dead:
        assert column_filter is None
        return
    doc_ids, tf = column_filter(arrays.doc_ids, arrays.tf)
    expected = live_postings(decode_record(record), dead)
    assert doc_ids.tolist() == [doc for doc, _p in expected]
    assert tf.tolist() == [len(p) for _d, p in expected]


@given(case=record_and_dead())
@settings(max_examples=60, deadline=None)
def test_decode_live_memoizes_the_filter(case):
    record, dead = case
    cache = DecodeCache()
    first = cache.decode_live(record, dead)
    assert cache.decode_live(bytes(record), set(dead)) is first
    assert first.to_postings() == live_postings(decode_record(record), dead)
    arrays = cache.decode(record)
    if not set(arrays.doc_ids.tolist()) & dead:
        assert first is arrays


def test_filter_entries_share_the_budget():
    record = encode_record([(1, (1, 5)), (3, (2,)), (9, (4, 6, 8))])
    cache = DecodeCache()
    cache.decode(record)
    raw = cache._lru.held
    live = cache.decode_live(record, {3})
    assert live.doc_ids.tolist() == [1, 9]
    # The filtered copy keeps its gap column, doc_ids, tf and pos_starts.
    assert cache._lru.held == raw + live.ctf + 3 * live.df
    cache.decode_live(record, {2})  # no document dead: a one-unit marker
    assert cache._lru.held == raw + live.ctf + 3 * live.df + 1


def test_old_tombstone_sets_release_their_entries():
    record = encode_record([(1, (1,)), (2, (3,)), (4, (5,))])
    cache = DecodeCache()
    raw = cache.decode(record)
    for doc in range(1, 2 + DecodeCache._DEAD_SETS):
        cache.decode_live(record, {doc})
    assert (record, frozenset({1})) not in cache._lru
    assert cache._lru.get(record) is raw
    assert len(cache._lru) == 1 + DecodeCache._DEAD_SETS
