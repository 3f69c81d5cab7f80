"""The columnar record body: the same integers, so the same bytes.

Every simulated figure — pool choice, segment packing, chunk splits,
I/A/B, decode and term-cache charges, WAL bytes — is a function of
record and chunk byte lengths.  The columnar body
(``df ctf gap(doc)*df tf*df gap(pos)*ctf``) stores the integers of
INQUERY's interleaved body in another order, so those lengths cannot
move.  These properties pin that, and that every codec writes and reads
the one layout byte for byte: the scalar reference, the vector codec,
the bulk collection encoder and the append path of ``merge_records``.
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
from repro.inquery.postings import (
    _column_bounds,
    _column_bounds_py,
    _decode_record_py,
    _encode_record_py,
    encode_record,
    merge_records,
    split_postings,
    vbyte_length,
)

from ..interleaved import encode_interleaved


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
