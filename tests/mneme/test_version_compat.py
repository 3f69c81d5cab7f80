"""Old platters still load — and transparently run exhaustive.

Two format changes are pinned here.  The bound metadata added for
dynamic pruning changed the dictionary record layout (v2: ``max_tf`` +
bound-sidecar key per term).  A v1 file, written before bounds existed,
starts with its entry count where later files carry a magic word, so
:meth:`HashDictionary.load` sniffs the version from the first word
alone.  The columnar record body (v3) changed the order of every
record's integers; v1 and v2 platters store them interleaved, and
:meth:`CollectionIndex.open` rewrites them once, in place.  The platters
built here store their records interleaved (through the test oracle),
as a pre-v3 build wrote them.

The behavioural contract on v1 data: ``prune="auto"`` silently
evaluates exhaustively (no metadata, no bound, no skip), and
``prune="require"`` refuses loudly with
:class:`~repro.errors.PruningUnsupportedError`.
"""

import struct

import pytest

from repro.errors import PruningUnsupportedError
from repro.btree.node import INLINE_MAX
from repro.inquery import (
    BTreeInvertedFile,
    CollectionIndex,
    Document,
    DocumentAtATimeEngine,
    HashDictionary,
    IndexBuilder,
    LinkedMnemeInvertedFile,
    MnemeInvertedFile,
    RetrievalEngine,
)
from repro.inquery.postings import decode_record
from repro.simdisk import SimClock, SimDisk, SimFileSystem, load_image, save_image

from ..interleaved import encode_interleaved, interleave_platter


def v1_bytes(dictionary: HashDictionary) -> bytes:
    """Re-serialize a dictionary in the pre-bounds v1 layout."""
    parts = [struct.pack("<II", len(dictionary), dictionary._next_id)]
    for entry in dictionary.entries():
        raw = entry.term.encode("utf-8")
        parts.append(
            HashDictionary._REC.pack(
                entry.term_id, entry.df, entry.ctf,
                entry.storage_key, len(raw),
            )
        )
        parts.append(raw)
    return b"".join(parts)


def build_index():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    store = MnemeInvertedFile(fs)
    builder = IndexBuilder(fs, store, stem_fn=str)
    docs = [
        "object store segments hold inverted records",
        "records are read one inverted list per term",
        "belief values rank documents for every query",
        "query terms map to records through the dictionary",
        "the dictionary survives a version change intact",
    ]
    for doc_id, text in enumerate(docs, start=1):
        builder.add_document(Document(doc_id, tokens=text.split()))
    return builder.finalize()


def reopen_with_v1_dictionary(index) -> CollectionIndex:
    """A fresh process view of a platter written before bounds existed:
    a v1 dictionary over interleaved records."""
    fs = index.fs
    interleave_platter(index)
    index.save()
    fs.open("index.dict").truncate(0)
    fs.open("index.dict").write(0, v1_bytes(index.dictionary))
    return CollectionIndex.open(
        fs, MnemeInvertedFile(fs), stopwords=index.stopwords, stem_fn=index.stem_fn
    )


def test_v1_load_sniffs_version_and_zeroes_bound_metadata():
    index = build_index()
    fs = index.fs
    file = fs.create("v1.dict")
    file.write(0, v1_bytes(index.dictionary))
    loaded = HashDictionary.load(file)
    assert len(loaded) == len(index.dictionary)
    for entry in index.dictionary.entries():
        old = loaded.lookup(entry.term)
        assert old is not None
        assert (old.term_id, old.df, old.ctf, old.storage_key) == (
            entry.term_id, entry.df, entry.ctf, entry.storage_key
        )
        # The v2 build recorded real bounds; the v1 round-trip has none.
        assert entry.max_tf > 0
        assert old.max_tf == 0
        assert old.bounds_key == 0


def test_v2_save_reloads_bound_metadata():
    index = build_index()
    file = index.fs.create("v2.dict")
    index.dictionary.save(file)
    loaded = HashDictionary.load(file)
    for entry in index.dictionary.entries():
        reloaded = loaded.lookup(entry.term)
        assert reloaded.max_tf == entry.max_tf
        assert reloaded.bounds_key == entry.bounds_key


def test_v1_platter_auto_falls_back_to_exhaustive():
    index = build_index()
    query = "#sum( records inverted query )"
    expected = DocumentAtATimeEngine(index, top_k=3).run_query(query).ranking
    old = reopen_with_v1_dictionary(index)
    result = DocumentAtATimeEngine(old, top_k=3, prune="auto").run_query(query)
    assert result.ranking == expected
    assert not result.pruned
    assert result.documents_skipped == 0
    assert result.blocks_skipped == 0
    assert result.prune_threshold_updates == 0


def test_v1_platter_require_raises():
    index = build_index()
    old = reopen_with_v1_dictionary(index)
    engine = DocumentAtATimeEngine(old, top_k=3, prune="require")
    with pytest.raises(PruningUnsupportedError):
        engine.run_query("#sum( records inverted query )")


# -- interleaved record bodies (v1/v2) become columnar (v3) on open ----------

#: Records past 48 bytes go to the large pool as chains of ~64-byte
#: chunks, so the platter holds small, medium and chained records.
LINKED = dict(medium_max_bytes=48, chunk_bytes=64)

CORPUS = [
    " ".join(
        f"w{(doc * 7 + k * k) % 23}" for k in range(3 + doc % 11)
    ) + " common" * (1 + doc % 3) + f" only{doc}"
    for doc in range(1, 61)
]

QUERIES = [
    "#sum( common w1 w4 )",
    "#wsum( 2 w9 1 common 3 w16 )",
    "#sum( w0 w2 w3 w5 w7 w11 )",
]


def build_corpus(fs, store):
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id, text in enumerate(CORPUS, start=1):
        builder.add_document(Document(doc_id, tokens=text.split()))
    return builder.finalize()


def build_linked(fs):
    return build_corpus(fs, LinkedMnemeInvertedFile(fs, **LINKED))


def rankings(index):
    engines = [
        RetrievalEngine(index, top_k=5),
        DocumentAtATimeEngine(index, top_k=5, prune="off"),
        DocumentAtATimeEngine(index, top_k=5, prune="require"),
    ]
    return [[engine.run_query(q).ranking for q in QUERIES] for engine in engines]


def test_v1_platter_records_are_rewritten_columnar_in_place():
    index = build_index()
    before = {
        e.term: (e.storage_key, decode_record(index.store.fetch(e.storage_key)))
        for e in index.dictionary.entries()
    }
    old = reopen_with_v1_dictionary(index)
    assert old.dictionary.version == 1
    assert HashDictionary.load(old.fs.open("index.dict")).version == 3
    for entry in old.dictionary.entries():
        key, postings = before[entry.term]
        assert entry.storage_key == key  # nothing moved
        record = old.store.fetch(key)
        assert decode_record(record) == postings
        assert len(record) == len(encode_interleaved(postings))


def save_as_v2_platter(index) -> None:
    """Store ``index`` as a pre-v3 build did: interleaved records under
    a v2 dictionary (v3 with the v2 magic word; the entries agree)."""
    interleave_platter(index)
    index.save()
    dict_file = index.fs.open("index.dict")
    raw = bytearray(dict_file.read(0, dict_file.size))
    raw[:4] = struct.pack("<I", HashDictionary._V2_MAGIC)
    dict_file.truncate(0)
    dict_file.write(0, bytes(raw))


def test_v2_image_with_interleaved_chains_ranks_like_a_fresh_build(tmp_path):
    fresh = build_linked(SimFileSystem(SimDisk(SimClock()), cache_blocks=64))
    expected = rankings(fresh)

    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    index = build_linked(fs)
    chained = [e for e in index.dictionary.entries() if e.bounds_key]
    assert chained, "the corpus must produce chained records"
    save_as_v2_platter(index)
    path = tmp_path / "v2.img"
    save_image(fs, path)

    loaded = load_image(path)
    reopened = CollectionIndex.open(
        loaded, LinkedMnemeInvertedFile(loaded, **LINKED), stem_fn=str
    )
    assert reopened.dictionary.version == 2
    assert rankings(reopened) == expected
    # The rewrite happened once: the platter now opens as v3, unchanged.
    again = CollectionIndex.open(
        loaded, LinkedMnemeInvertedFile(loaded, **LINKED), stem_fn=str
    )
    assert again.dictionary.version == 3
    assert rankings(again) == expected


def test_v2_btree_platter_is_rewritten_in_its_leaves_and_heap():
    fresh_fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    fresh = build_corpus(fresh_fs, BTreeInvertedFile(fresh_fs))
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=64)
    index = build_corpus(fs, BTreeInvertedFile(fs))
    sizes = {len(index.store.fetch(e.storage_key)) for e in index.dictionary.entries()}
    assert min(sizes) <= INLINE_MAX < max(sizes)  # leaf-inline and heap records
    save_as_v2_platter(index)
    reopened = CollectionIndex.open(fs, BTreeInvertedFile(fs), stem_fn=str)
    for entry in fresh.dictionary.entries():
        assert reopened.store.fetch(entry.storage_key) == fresh.store.fetch(entry.storage_key)
    fresh_rankings, reopened_rankings = (
        [RetrievalEngine(i, top_k=5).run_query(q).ranking for q in QUERIES]
        for i in (fresh, reopened)
    )
    assert reopened_rankings == fresh_rankings
