"""Property tests: the vector codec is byte-for-byte the reference codec."""

from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.fastpath.codec import (
    arrays_from_postings,
    decode_record_arrays,
    decode_record_fast,
    encode_record_fast,
)
from repro.fastpath.vbyte import MAX_VALUE, decode_stream, encode_stream
from repro.inquery.postings import (
    _decode_record_py,
    _encode_record_py,
    decode_record,
    encode_record,
    merge_records,
    vbyte_decode,
    vbyte_encode,
)


def _vb(value: int) -> bytes:
    out = bytearray()
    vbyte_encode(value, out)
    return bytes(out)

# -- strategies ---------------------------------------------------------------

positions_st = st.lists(
    st.integers(min_value=0, max_value=5000), min_size=1, max_size=30,
    unique=True,
).map(sorted)

postings_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=100_000), positions_st),
    min_size=0,
    max_size=40,
    unique_by=lambda pair: pair[0],
).map(
    lambda pairs: [(doc, tuple(pos)) for doc, pos in sorted(pairs)]
)

values_st = st.lists(
    st.integers(min_value=0, max_value=MAX_VALUE), min_size=0, max_size=200
)


# -- v-byte stream kernels ----------------------------------------------------

@given(values=values_st)
@settings(max_examples=100, deadline=None)
def test_encode_stream_matches_reference_bytes(values):
    buffer, lengths = encode_stream(np.asarray(values, dtype=np.int64))
    reference = b"".join(_vb(value) for value in values)
    assert buffer == reference
    assert lengths.tolist() == [len(_vb(value)) for value in values]


@given(values=values_st)
@settings(max_examples=100, deadline=None)
def test_decode_stream_round_trips(values):
    buffer, _lengths = encode_stream(np.asarray(values, dtype=np.int64))
    decoded, clean = decode_stream(buffer)
    assert clean
    assert decoded.tolist() == values


@given(values=st.lists(st.integers(min_value=0, max_value=MAX_VALUE),
                       min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_decode_stream_truncated_buffer_is_not_clean(values):
    buffer, _ = encode_stream(np.asarray(values, dtype=np.int64))
    # Chop the terminator byte off the final integer.  If that integer
    # was a single byte the rest of the buffer is still clean;
    # otherwise its continuation bytes dangle.
    decoded, clean = decode_stream(buffer[:-1])
    assert clean == (len(_vb(values[-1])) == 1)
    assert decoded.tolist() == values[:-1]


#: One value from each encoded length, 1 to 9 bytes.
by_length_st = st.integers(min_value=1, max_value=9).flatmap(
    lambda groups: st.integers(
        min_value=0 if groups == 1 else 1 << (7 * (groups - 1)),
        max_value=(1 << (7 * groups)) - 1,
    )
)


@given(values=st.lists(by_length_st, min_size=1, max_size=120))
@settings(max_examples=150, deadline=None)
def test_decode_stream_matches_reference_in_every_length_class(values):
    # Encoded by the *reference* encoder, decoded value by value by the
    # reference decoder: the length-class kernel (one-byte integers taken
    # directly, wider ones fixed up sparsely) must see the same integers.
    buffer = b"".join(_vb(value) for value in values)
    expected, pos = [], 0
    while pos < len(buffer):
        value, pos = vbyte_decode(buffer, pos)
        expected.append(value)
    assert expected == values
    decoded, clean = decode_stream(buffer)
    assert clean
    assert decoded.tolist() == values


def test_decode_stream_rejects_ten_byte_integers():
    with pytest.raises(IndexError_):
        decode_stream(_vb(3) + _vb(1 << 63) + _vb(5))


def test_encode_stream_rejects_negative_like_reference():
    with pytest.raises(IndexError_, match="negative"):
        encode_stream(np.asarray([3, -7], dtype=np.int64))
    with pytest.raises(IndexError_):
        _vb(-7)


# -- record codec -------------------------------------------------------------

@given(postings=postings_st)
@settings(max_examples=100, deadline=None)
def test_encode_record_fast_is_byte_identical(postings):
    assert encode_record_fast(postings) == _encode_record_py(postings)


@given(postings=postings_st)
@settings(max_examples=100, deadline=None)
def test_decode_record_fast_matches_reference(postings):
    record = _encode_record_py(postings)
    assert decode_record_fast(record) == _decode_record_py(record)


@given(postings=postings_st)
@settings(max_examples=100, deadline=None)
def test_record_arrays_round_trip(postings):
    record = _encode_record_py(postings)
    arrays = decode_record_arrays(record)
    assert arrays.to_postings() == postings
    assert arrays.df == len(postings)
    assert arrays.ctf == sum(len(pos) for _doc, pos in postings)
    rebuilt = arrays_from_postings(postings)
    assert rebuilt.doc_ids.tolist() == arrays.doc_ids.tolist()
    assert rebuilt.positions.tolist() == arrays.positions.tolist()


@given(postings=postings_st)
@settings(max_examples=60, deadline=None)
def test_dispatchers_agree_with_scalar(postings):
    # The public entry points dispatch on size; both sides of the
    # cutover must produce identical results.
    record = encode_record(postings)
    assert record == _encode_record_py(postings)
    assert decode_record(record) == _decode_record_py(record)


def test_decode_record_fast_raises_reference_errors():
    # Truncated record: both decoders raise the canonical IndexError_.
    record = _encode_record_py([(1, (0, 2)), (5, (1,))])
    for cut in range(1, len(record)):
        truncated = record[:cut]
        try:
            expected = _decode_record_py(truncated)
        except IndexError_:
            with pytest.raises(IndexError_):
                decode_record_fast(truncated)
        else:
            assert decode_record_fast(truncated) == expected


def _reference_outcome(record):
    """What the scalar route yields: postings, or the error it raises."""
    try:
        return arrays_from_postings(_decode_record_py(record)).to_postings()
    except (IndexError_, OverflowError) as error:
        return type(error)


def _assert_routes_like_scalar(record):
    """``decode_record_arrays`` raises what the scalar route raises — at
    the call, not at some later touch of ``positions`` — and otherwise
    agrees with it whether or not ``positions`` is ever read."""
    expected = _reference_outcome(record)
    if isinstance(expected, type):
        with pytest.raises(expected):
            decode_record_arrays(record)
        return
    untouched = decode_record_arrays(record)
    assert untouched.doc_ids.tolist() == [doc for doc, _p in expected]
    assert untouched.tf.tolist() == [len(p) for _d, p in expected]
    assert untouched.df == len(expected)
    assert untouched.ctf == sum(len(p) for _d, p in expected)
    assert decode_record_arrays(record).to_postings() == expected


def _big_postings(n_docs):
    return [
        (3 * i + 1, tuple(range(i % 5, i % 5 + 300 * (1 + i % 4), 300)))
        for i in range(n_docs)
    ]


@pytest.mark.parametrize("n_docs", [1, 2, 9, 1000])
def test_decode_long_records_and_their_truncations(n_docs):
    postings = _big_postings(n_docs)
    record = _encode_record_py(postings)
    assert decode_record_arrays(record).to_postings() == postings
    for cut in {1, 2, 3, len(record) // 2, len(record) - 2, len(record) - 1}:
        if 0 < cut < len(record):
            _assert_routes_like_scalar(record[:cut])


def test_decode_reads_no_uninitialised_memory():
    # ``np.empty`` scratch arrays hold whatever the heap held, so a slot
    # the decoder forgets to fill fails only now and then.  Poison them.
    real_empty = np.empty

    def poisoned_empty(shape, dtype=float, **kwargs):
        out = real_empty(shape, dtype, **kwargs)
        if out.dtype.kind in "iu":
            out.fill(np.iinfo(out.dtype).min or np.iinfo(out.dtype).max)
        return out

    postings = _big_postings(400)
    record = _encode_record_py(postings)
    with mock.patch.object(np, "empty", poisoned_empty):
        assert decode_record_arrays(record).to_postings() == postings
        _assert_routes_like_scalar(record[: len(record) // 2])


@pytest.mark.parametrize("n_docs", [3, 300])
def test_header_inconsistent_records_route_like_scalar(n_docs):
    postings = _big_postings(n_docs)
    record = _encode_record_py(postings)
    df = len(postings)
    ctf = sum(len(p) for _d, p in postings)
    body = record[len(_vb(df)) + len(_vb(ctf)):]
    tail = _vb(1) * 40  # spare integers, so a larger claim still finds bytes
    for claimed_df, claimed_ctf in [
        (df, ctf - 1), (df, ctf + 1), (df, 0), (df, ctf + 7),
        (df - 1, ctf), (df + 1, ctf), (df + 1, ctf + 1), (df - 1, ctf - 1),
    ]:
        header = _vb(claimed_df) + _vb(claimed_ctf)
        _assert_routes_like_scalar(header + body)
        _assert_routes_like_scalar(header + body + tail)


def test_records_beyond_63_bits_route_like_scalar():
    huge = 1 << 63
    for postings in (
        [(1, (0, huge))],                        # one ten-byte position gap
        [(huge, (0,))],                          # ten-byte document gap
        [(1, (0, huge - 1, 2 * huge - 2))],      # nine-byte gaps, sum overflows
        [(huge - 1, (0,)), (2 * huge - 2, (1,))],
        [(i + 1, (0, 5)) for i in range(300)] + [(huge + 300, (0,))],
    ):
        record = _encode_record_py(postings)
        assert _decode_record_py(record) == postings
        assert _reference_outcome(record) is OverflowError
        _assert_routes_like_scalar(record)


# -- merge_records append fast path -------------------------------------------

extra_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=200_000), positions_st),
    min_size=1,
    max_size=10,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: [(doc, tuple(pos)) for doc, pos in sorted(pairs)])


@given(base=postings_st, extra=extra_st)
@settings(max_examples=100, deadline=None)
def test_merge_records_matches_decode_merge_encode(base, extra):
    base_record = _encode_record_py(base)
    merged = merge_records(base_record, extra)
    by_doc = dict(base)
    by_doc.update(dict(extra))
    expected = _encode_record_py(sorted(by_doc.items()))
    assert merged == expected


@given(base=postings_st, extra=extra_st)
@settings(max_examples=60, deadline=None)
def test_merge_records_append_only_suffix(base, extra):
    # When every new document sorts after the base, the merge must
    # preserve the base encoding as a strict prefix (the append path).
    last = base[-1][0] if base else 0
    shifted = [(doc + last, positions) for doc, positions in extra]
    base_record = _encode_record_py(base)
    merged = merge_records(base_record, shifted)
    expected = _encode_record_py(base + shifted)
    assert merged == expected
