"""Unit tests for the open-chaining hash dictionary."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.inquery import HashDictionary, TermEntry
from repro.simdisk import SimClock, SimDisk, SimFileSystem


def test_add_assigns_sequential_ids():
    d = HashDictionary()
    a = d.add("alpha")
    b = d.add("beta")
    assert a.term_id == 1
    assert b.term_id == 2


def test_add_is_idempotent():
    d = HashDictionary()
    first = d.add("alpha")
    second = d.add("alpha")
    assert first is second
    assert len(d) == 1


def test_lookup_missing_returns_none():
    assert HashDictionary().lookup("ghost") is None


def test_lookup_finds_chained_entries():
    d = HashDictionary(initial_buckets=1)  # force every term into one chain
    for term in ("a", "b", "c", "d"):
        d.add(term)
    for term in ("a", "b", "c", "d"):
        assert d.lookup(term).term == term


def test_grows_when_overloaded():
    d = HashDictionary(initial_buckets=2)
    for i in range(100):
        d.add(f"term{i}")
    assert d.bucket_count > 2
    assert len(d) == 100
    for i in range(100):
        assert d.lookup(f"term{i}") is not None


def test_ids_stable_across_growth():
    d = HashDictionary(initial_buckets=2)
    ids = {f"term{i}": d.add(f"term{i}").term_id for i in range(50)}
    for term, term_id in ids.items():
        assert d.lookup(term).term_id == term_id


def test_entries_iterates_all():
    d = HashDictionary()
    terms = {f"t{i}" for i in range(20)}
    for term in terms:
        d.add(term)
    assert {e.term for e in d.entries()} == terms


def test_by_id():
    d = HashDictionary()
    d.add("x")
    d.add("y")
    by_id = d.by_id()
    assert by_id[1].term == "x"
    assert by_id[2].term == "y"


def test_needs_a_bucket():
    with pytest.raises(IndexError_):
        HashDictionary(initial_buckets=0)


def test_save_load_roundtrip():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=32)
    d = HashDictionary()
    for i in range(200):
        entry = d.add(f"word{i}")
        entry.df = i
        entry.ctf = i * 3
        entry.storage_key = i * 7 + 1
    file = fs.create("dict")
    d.save(file)
    loaded = HashDictionary.load(file)
    assert len(loaded) == 200
    for i in range(200):
        entry = loaded.lookup(f"word{i}")
        assert entry.term_id == d.lookup(f"word{i}").term_id
        assert (entry.df, entry.ctf, entry.storage_key) == (i, i * 3, i * 7 + 1)
    # New terms continue the id sequence.
    assert loaded.add("brand-new").term_id == d._next_id


def test_load_truncated_file_rejected():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=32)
    file = fs.create("bad")
    file.write(0, b"\x01")
    with pytest.raises(IndexError_):
        HashDictionary.load(file)


@given(terms=st.lists(st.text(alphabet="abcdefghij", min_size=1, max_size=8), max_size=80))
@settings(max_examples=40, deadline=None)
def test_matches_dict_model(terms):
    d = HashDictionary(initial_buckets=4)
    model = {}
    for term in terms:
        entry = d.add(term)
        if term in model:
            assert entry.term_id == model[term]
        else:
            model[term] = entry.term_id
    assert len(d) == len(model)
    assert len(set(model.values())) == len(model)  # ids unique
    for term, term_id in model.items():
        assert d.lookup(term).term_id == term_id


def _saved(d: HashDictionary) -> bytes:
    file = SimFileSystem(SimDisk(SimClock()), cache_blocks=32).create("dict")
    d.save(file)
    return file.read(0, file.size)


def _row(entry: TermEntry) -> tuple:
    return (entry.term, entry.term_id, entry.df, entry.ctf, entry.storage_key,
            entry.max_tf, entry.bounds_key)


def _build_both(terms, buckets):
    """The same entries through sequential ``add`` and ``from_entries``."""
    sequential = HashDictionary(initial_buckets=buckets)
    bulk_entries = []
    for i, term in enumerate(terms):
        fields = (3 * i + 2, i + 1, 5 * i + 1, i * 7 + 3, i % 11, i * 13)
        entry = sequential.add(term, fields[0])
        (entry.df, entry.ctf, entry.storage_key, entry.max_tf,
         entry.bounds_key) = fields[1:]
        bulk_entries.append(TermEntry(term, *fields))
    return sequential, HashDictionary.from_entries(bulk_entries, initial_buckets=buckets)


#: Few letters and short words: many terms share a bucket, and small
#: bucket counts make ``add`` grow the table (several times) mid-build.
_TERM_SETS = st.lists(
    st.text(alphabet="abcdé", min_size=1, max_size=6), unique=True, max_size=120
)


@given(terms=_TERM_SETS, buckets=st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_bulk_constructor_equals_sequential_add(terms, buckets):
    sequential, bulk = _build_both(terms, buckets)
    assert _saved(bulk) == _saved(sequential)
    assert len(bulk) == len(sequential) == len(terms)
    assert bulk._next_id == sequential._next_id
    assert bulk.bucket_count == sequential.bucket_count
    for term in terms + ["absent", "éé"]:
        found, expected = bulk.lookup(term), sequential.lookup(term)
        assert (found is None) == (expected is None)
        if found is not None:
            assert _row(found) == _row(expected)


@given(terms=_TERM_SETS, buckets=st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_save_load_round_trips_through_the_bulk_path(terms, buckets):
    original, _bulk = _build_both(terms, buckets)
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=32)
    file = fs.create("dict")
    original.save(file)
    loaded = HashDictionary.load(file)
    assert len(loaded) == len(original)
    assert loaded._next_id == original._next_id
    assert sorted(map(_row, loaded.entries())) == sorted(map(_row, original.entries()))
    # Without the saving table's size, ``load`` guesses one and links
    # each chain in saved order: ``add`` in reverse saved order (``add``
    # prepends), same chains, same bytes.
    replayed = HashDictionary(initial_buckets=max(1024, len(terms) // 2))
    for entry in reversed(list(original.entries())):
        copy = replayed.add(entry.term, entry.term_id)
        (copy.df, copy.ctf, copy.storage_key, copy.max_tf,
         copy.bounds_key) = _row(entry)[2:]
    assert _saved(loaded) == _saved(replayed)


@given(
    terms=_TERM_SETS,
    buckets=st.integers(min_value=1, max_value=40),
    adds=st.lists(st.text(alphabet="abcdéz", min_size=1, max_size=7), max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_reload_with_the_saving_table_size_saves_identical_bytes(terms, buckets, adds):
    """A dictionary reloaded with its table size is its original: saving
    writes the loaded bytes, and the same adds, past a ``_grow`` or
    not, leave both saving identical bytes."""
    original, _bulk = _build_both(terms, buckets)
    file = SimFileSystem(SimDisk(SimClock()), cache_blocks=32).create("dict")
    original.save(file)
    loaded = HashDictionary.load(file, original.bucket_count)
    assert loaded.bucket_count == original.bucket_count
    assert _saved(loaded) == file.read(0, file.size)
    for term in adds:
        for d in (original, loaded):
            entry = d.add(term)
            entry.df += 1
            d.touch(entry)
    assert loaded.bucket_count == original.bucket_count
    assert _saved(loaded) == _saved(original)


def test_reload_grows_like_the_original_past_a_doubling():
    original = HashDictionary(initial_buckets=2)
    for i in range(8):  # 4 per bucket: the next add doubles the table
        original.add(f"t{i}")
    file = SimFileSystem(SimDisk(SimClock()), cache_blocks=32).create("dict")
    original.save(file)
    loaded = HashDictionary.load(file, original.bucket_count)
    for d in (original, loaded):
        d.add("grows")
    assert original.bucket_count == loaded.bucket_count == 4
    assert _saved(loaded) == _saved(original)


def test_bulk_constructor_links_shared_buckets_in_insertion_order():
    entries = [TermEntry(term, i + 1) for i, term in enumerate("abcdefghi")]
    d = HashDictionary.from_entries(entries, initial_buckets=1)
    # ``add`` grows at 4 entries per bucket: nine entries doubled one
    # bucket twice, and every term is still found as its own entry.
    assert d.bucket_count == 4
    for entry in entries:
        assert d.lookup(entry.term) is entry
    assert d._next_id == 10
    assert HashDictionary.from_entries([], initial_buckets=8).bucket_count == 8
