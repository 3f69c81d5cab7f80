"""The columnar record body: the same integers, so the same bytes.

Every simulated figure — pool choice, segment packing, chunk splits,
I/A/B, decode and term-cache charges, WAL bytes — is a function of
record and chunk byte lengths.  The columnar body
(``df ctf gap(doc)*df tf*df gap(pos)*ctf``) stores the integers of
INQUERY's interleaved body in another order, so those lengths cannot
move.  These properties pin that, and that every codec writes and reads
the one layout byte for byte: the scalar reference, the vector codec,
the bulk collection encoder, the append path of ``merge_records`` and
the chain splices (``split_columns``, ``join_columns``,
``drop_documents``), which must equal the posting-list transcode they
replaced (:mod:`tests.transcode`) on every record ``encode_record``
writes, and refuse every other record with the typed error.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.fastpath import use_fastpath
from repro.fastpath.build import encode_collection
from repro.fastpath.codec import (
    column_bounds,
    decode_record_arrays,
    decode_record_fast,
    encode_record_fast,
)
from repro.errors import IndexError_
from repro.inquery.postings import (
    _column_bounds,
    _column_bounds_py,
    _decode_record_py,
    _encode_record_py,
    column_stats,
    decode_record,
    drop_documents,
    encode_record,
    join_columns,
    merge_records,
    split_columns,
    vbyte_encode,
    vbyte_length,
)

from ..interleaved import encode_interleaved
from ..transcode import chunk_stats, join_chunk_records, split_postings


def _postings(rng, df, max_tf, span, first=0):
    docs = sorted(rng.sample(range(first, first + span), df))
    return [
        (doc, tuple(sorted(rng.sample(range(span), rng.randint(1, max_tf)))))
        for doc in docs
    ]


@st.composite
def postings_lists(draw, max_df=300):
    """Sorted posting lists: empty, df up to ``max_df``, tf up to 50,
    ids and positions up to 2**40."""
    df = draw(st.one_of(st.integers(0, 3), st.integers(1, max_df)))
    max_tf = draw(st.integers(1, 50))
    span = draw(st.sampled_from([100, 10**6, 2**40]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _postings(rng, df, max_tf, max(span, 4 * df, max_tf))


@given(postings=postings_lists())
@settings(max_examples=80, deadline=None)
def test_columnar_record_has_the_interleaved_length(postings):
    assert len(encode_record(postings)) == len(encode_interleaved(postings))


@given(postings=postings_lists(), target=st.integers(16, 4096))
@settings(max_examples=60, deadline=None)
def test_every_split_chunk_keeps_its_length(postings, target):
    for chunk in split_postings(postings, target):
        assert len(encode_record(chunk)) == len(encode_interleaved(chunk))


@given(postings=postings_lists())
@settings(max_examples=80, deadline=None)
def test_reference_and_vector_codecs_write_and_read_one_layout(postings):
    record = _encode_record_py(postings)
    assert encode_record_fast(postings) == record
    assert _decode_record_py(record) == postings
    assert decode_record_fast(record) == postings
    arrays = decode_record_arrays(record)
    assert arrays.doc_ids.tolist() == [doc for doc, _p in postings]
    assert arrays.tf.tolist() == [len(p) for _d, p in postings]
    assert arrays.to_postings() == postings


@given(terms=st.lists(postings_lists(max_df=60), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_encode_collection_is_per_term_encode_record(terms):
    terms = [postings for postings in terms if postings]
    if not terms:
        return
    triples = sorted(
        (rank, doc, position)
        for rank, postings in enumerate(terms, start=1)
        for doc, positions in postings
        for position in positions
    )
    ranks, docs, positions = (np.array(column, dtype=np.int64) for column in zip(*triples))
    encoded = encode_collection(ranks, docs, positions)
    assert [record for _term_id, record in encoded.records] == [
        encode_record(postings) for postings in terms
    ]


@given(
    base=postings_lists(max_df=120),
    extra=postings_lists(max_df=12),
    append=st.booleans(),
    fast=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_merge_records_is_encode_of_the_merged_list(base, extra, append, fast):
    if not extra:
        return
    if append:
        last = base[-1][0] if base else 0
        extra = [(doc + last + 1, positions) for doc, positions in extra]
    merged = dict(base)
    merged.update(extra)
    base_record = encode_record(base)
    with use_fastpath(fast):
        assert merge_records(base_record, extra) == encode_record(sorted(merged.items()))


@pytest.mark.parametrize("df", [1, 2, 5, 63, 64, 200])
@pytest.mark.parametrize("fast", [False, True])
def test_merge_covers_records_under_and_over_the_vector_cutover(df, fast):
    # Under and over 64 bytes, and on both sides of the cutover at
    # which the append path finds the column bounds with the vector
    # kernels.
    rng = random.Random(df)
    base = _postings(rng, df, 6, 10**6)
    extra = _postings(rng, 3, 4, 10**6, first=base[-1][0] + 1)
    record = encode_record(base)
    with use_fastpath(fast):
        assert merge_records(record, extra) == encode_record(base + extra)
        assert merge_records(record, extra[:1] + base[:1]) == encode_record(
            sorted(dict(base + extra[:1]).items())
        )
    assert (len(record) < 64) == (df < 5)


@given(postings=postings_lists())
@settings(max_examples=80, deadline=None)
def test_column_bounds_find_the_columns_and_the_last_document(postings):
    if not postings:
        return
    record = encode_record(postings)
    df = len(postings)
    ctf = sum(len(p) for _d, p in postings)
    header_end = vbyte_length(df) + vbyte_length(ctf)
    gaps = [postings[0][0]] + [b[0] - a[0] for a, b in zip(postings, postings[1:])]
    docs_end = header_end + sum(vbyte_length(gap) for gap in gaps)
    tfs_end = docs_end + sum(vbyte_length(len(p)) for _d, p in postings)
    expected = (header_end, docs_end, tfs_end, postings[-1][0])
    assert _column_bounds_py(record, df) == expected
    assert column_bounds(record, df) == expected
    assert _column_bounds(record, df) == expected


def _record(df, ctf, gaps, tfs, positions):
    """A record written integer by integer, well-formed or not."""
    out = bytearray()
    for value in [df, ctf, *gaps, *tfs, *positions]:
        vbyte_encode(value, out)
    return bytes(out)


#: Records ``encode_record`` never writes, each with a document to drop:
#: truncated, trailing bytes, a zero tf, a repeated document, a repeated
#: position, tfs that miss the ctf, an over-long v-byte.
MALFORMED = [
    (encode_record([(5, (1, 4)), (8, (2,))])[:-1], 5),
    (encode_record([(5, (1, 4)), (8, (2,))]) + b"\x03", 5),
    (_record(2, 1, [5, 3], [1, 0], [4]), 5),
    (_record(2, 2, [5, 0], [1, 1], [4, 6]), 5),
    (_record(2, 3, [5, 3], [2, 1], [4, 0, 6]), 8),
    (_record(2, 3, [5, 3], [1, 1], [4, 6, 7]), 5),
    (b"\x02\x02\x85\x00\x03\x01\x01\x04\x06", 5),
]


def _split_reference(record, target):
    slices = split_postings(decode_record(record), target)
    return ([encode_record(piece) for piece in slices], *chunk_stats(slices))


@given(
    postings=postings_lists(),
    target=st.one_of(st.integers(16, 512), st.integers(16, 16384)),
    fast=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_split_columns_is_the_posting_list_split(postings, target, fast):
    if not postings:
        return
    record = encode_record(postings)
    with use_fastpath(fast):
        chunks, last_docs, max_tfs = split_columns(record, target)
        assert (chunks, last_docs, max_tfs) == _split_reference(record, target)
        assert [column_stats(chunk) for chunk in chunks] == list(zip(last_docs, max_tfs))


@given(
    postings=postings_lists(),
    target=st.one_of(st.integers(16, 512), st.integers(16, 16384)),
    fast=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_join_columns_inverts_the_split(postings, target, fast):
    if not postings:
        return
    record = encode_record(postings)
    with use_fastpath(fast):
        chunks = split_columns(record, target)[0]
        assert join_columns(chunks) == join_chunk_records(chunks) == record


@given(postings=postings_lists(), data=st.data(), fast=st.booleans())
@settings(max_examples=80, deadline=None)
def test_drop_documents_is_decode_filter_encode(postings, data, fast):
    if not postings:
        return
    docs = [doc for doc, _p in postings]
    doomed = set(data.draw(st.lists(st.sampled_from(docs), max_size=8)))
    doomed |= set(data.draw(st.lists(st.integers(0, 2**41), max_size=3)))
    kept = [(doc, p) for doc, p in postings if doc not in doomed]
    removed = [p for doc, p in postings if doc in doomed]
    record = encode_record(postings)
    with use_fastpath(fast):
        dropped = drop_documents(record, doomed)
    if not removed:
        assert dropped is None
        return
    assert dropped == (
        encode_record(kept), max((len(p) for _d, p in kept), default=0)
    )


@pytest.mark.parametrize("record, doomed", MALFORMED)
@pytest.mark.parametrize("fast", [False, True])
def test_splices_fail_as_the_reference_does(record, doomed, fast):
    # The store splices only records it wrote, so each splice refuses
    # these with the typed error, including the ones the posting-list
    # reference would read and write back canonically.
    good = encode_record([(1, (3,))])
    late = encode_record([(9, (1,)), (12, (2,))])
    with use_fastpath(fast):
        for splice in (
            lambda: split_columns(record, 16),
            lambda: split_columns(record, 4096),
            lambda: join_columns([record]),
            lambda: join_columns([good, record]),
            lambda: join_columns([record, late]),
            lambda: drop_documents(record, {doomed}),
            lambda: column_stats(record),
        ):
            with pytest.raises(IndexError_):
                splice()


def _integers(postings):
    """A record's integers column by column: doc gaps, tfs, position gaps."""
    docs = [doc for doc, _p in postings]
    gaps = [docs[0]] + [b - a for a, b in zip(docs, docs[1:])]
    tfs = [len(p) for _d, p in postings]
    position_gaps = [
        b - a if i else b
        for _d, p in postings
        for i, (a, b) in enumerate(zip((0,) + p, p))
    ]
    return gaps, tfs, position_gaps


@given(
    postings=postings_lists(),
    flaw=st.sampled_from(["over-long v-byte", "trailing bytes", "zero tf"]),
    data=st.data(),
    fast=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_a_decodable_record_the_store_never_writes_is_refused(
    postings, flaw, data, fast
):
    if not postings:
        return
    record = encode_record(postings)
    if flaw == "over-long v-byte":
        # One integer re-encoded with a redundant zero continuation group.
        ends = [i for i, byte in enumerate(record) if byte < 0x80]
        end = data.draw(st.sampled_from(ends))
        bad = record[:end] + bytes([record[end] | 0x80, 0]) + record[end + 1:]
        assert _decode_record_py(bad) == postings
    elif flaw == "trailing bytes":
        tail = data.draw(st.binary(min_size=1, max_size=3))
        bad = record + tail
        assert _decode_record_py(bad) == postings
    else:
        # One more document, one past the last, with no positions.
        gaps, tfs, position_gaps = _integers(postings)
        bad = _record(
            len(postings) + 1, len(position_gaps), gaps + [1], tfs + [0],
            position_gaps,
        )
        assert _decode_record_py(bad) == postings + [(postings[-1][0] + 1, ())]
    with use_fastpath(fast):
        for splice in (
            lambda: split_columns(bad, data.draw(st.integers(16, 4096))),
            lambda: join_columns([bad]),
            lambda: drop_documents(bad, {postings[0][0]}),
            lambda: column_stats(bad),
        ):
            with pytest.raises(IndexError_):
                splice()


def test_a_repeated_document_across_chunks_fails_the_join():
    chunks = [encode_record([(4, (1,)), (9, (2,))]), encode_record([(9, (5,))])]
    with pytest.raises(IndexError_, match="postings out of order: doc 9 after 9"):
        join_columns(chunks)
