"""Unit tests for documents and the document table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.inquery import DocTable, Document, tokenize
from repro.simdisk import SimClock, SimDisk, SimFileSystem


def test_document_term_stream_from_text():
    doc = Document(1, text="Hello, World")
    assert doc.term_stream(tokenize) == ["hello", "world"]


def test_document_term_stream_pretokenized():
    doc = Document(1, tokens=["a", "b"])
    assert doc.term_stream(tokenize) == ["a", "b"]


def test_doctable_basic():
    table = DocTable()
    table.add(1, 100, "doc-one")
    table.add(2, 50)
    assert len(table) == 2
    assert 1 in table and 3 not in table
    assert table.length_of(1) == 100
    assert table.average_length == 75.0
    assert table.total_length == 150


def test_duplicate_rejected():
    table = DocTable()
    table.add(1, 10)
    with pytest.raises(IndexError_):
        table.add(1, 20)


def test_unknown_length_rejected():
    with pytest.raises(IndexError_):
        DocTable().length_of(9)


def test_remove():
    table = DocTable()
    table.add(1, 10, "x")
    table.remove(1)
    assert 1 not in table
    table.remove(1)  # idempotent


@given(ops=st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=500)),
    max_size=60,
))
@settings(max_examples=100, deadline=None)
def test_derived_data_tracks_interleaved_add_and_remove(ops):
    """``total_length`` and the cached doc-id space after any mix of
    ``add``/``remove`` equal a table built fresh from the survivors —
    including sequences that leave ``len()`` where it was (one live-ingest
    batch adds and removes), queried at every step so a stale cache shows."""
    np = pytest.importorskip("numpy")
    from repro.fastpath.beliefs import doc_id_space

    table = DocTable()
    for is_add, doc_id, length in ops:
        if is_add and doc_id not in table:
            table.add(doc_id, length)
        elif not is_add:
            table.remove(doc_id)  # absent ids included: must change nothing
        fresh = DocTable()
        for live_id, live_length in table.lengths.items():
            fresh.add(live_id, live_length)
        assert table.total_length == fresh.total_length
        assert table.average_length == fresh.average_length
        ids = np.array(sorted(table.lengths), dtype=np.int64)
        space = doc_id_space(table)
        assert space.lengths_of(ids).tolist() == \
            doc_id_space(fresh).lengths_of(ids).tolist() == \
            [table.lengths[i] for i in ids.tolist()]


def test_length_lookup_is_kept_until_the_next_mutation():
    pytest.importorskip("numpy")
    from repro.fastpath.beliefs import doc_id_space

    table = DocTable()
    table.add(1, 10)
    table.add(2, 20)
    space = doc_id_space(table)
    assert doc_id_space(table) is space
    table.remove(1)
    table.add(3, 30)  # len() is back to 2
    assert doc_id_space(table) is not space
    assert doc_id_space(table).span == 4  # the id range grew with the add


def test_empty_average():
    assert DocTable().average_length == 0.0


def test_save_load_roundtrip():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=16)
    table = DocTable()
    for i in range(1, 101):
        table.add(i, i * 3, f"doc{i}" if i % 2 else "")
    file = fs.create("docs")
    table.save(file)
    loaded = DocTable.load(file)
    assert len(loaded) == 100
    assert loaded.length_of(50) == 150
    assert loaded.names.get(51) == "doc51"
    assert 52 not in loaded.names
