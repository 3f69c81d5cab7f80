"""Unit tests for record encoding and compression."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.inquery import (
    decode_header,
    decode_record,
    drop_documents,
    encode_record,
    merge_records,
    uncompressed_size,
    vbyte_decode,
    vbyte_encode,
    vbyte_length,
)


class TestVByte:
    def test_small_values_one_byte(self):
        out = bytearray()
        vbyte_encode(127, out)
        assert len(out) == 1

    def test_roundtrip_samples(self):
        for value in (0, 1, 127, 128, 300, 16383, 16384, 2**28, 2**31):
            out = bytearray()
            vbyte_encode(value, out)
            decoded, pos = vbyte_decode(bytes(out), 0)
            assert decoded == value
            assert pos == len(out) == vbyte_length(value)

    def test_negative_rejected(self):
        with pytest.raises(IndexError_):
            vbyte_encode(-1, bytearray())

    def test_truncated_detected(self):
        out = bytearray()
        vbyte_encode(300, out)
        with pytest.raises(IndexError_):
            vbyte_decode(bytes(out[:-1]), 0)

    @given(values=st.lists(st.integers(min_value=0, max_value=2**40), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_stream_roundtrip(self, values):
        out = bytearray()
        for value in values:
            vbyte_encode(value, out)
        pos = 0
        decoded = []
        for _ in values:
            value, pos = vbyte_decode(bytes(out), pos)
            decoded.append(value)
        assert decoded == values
        assert pos == len(out)


class TestRecordCodec:
    def test_roundtrip(self):
        postings = [(3, (1, 5, 9)), (7, (0,)), (100, (2, 3))]
        record = encode_record(postings)
        assert decode_record(record) == postings

    def test_header(self):
        postings = [(3, (1, 5, 9)), (7, (0,))]
        header = decode_header(encode_record(postings))
        assert header.df == 2
        assert header.ctf == 4

    def test_empty_record(self):
        record = encode_record([])
        assert decode_record(record) == []
        assert decode_header(record).df == 0

    def test_single_occurrence_fits_small_pool(self):
        # The design point: a hapax legomenon's record is tiny (<= 12 B),
        # landing in the small object pool.
        record = encode_record([(50, (17,))])
        assert len(record) <= 12

    def test_out_of_order_docs_rejected(self):
        with pytest.raises(IndexError_):
            encode_record([(5, (1,)), (3, (1,))])
        with pytest.raises(IndexError_):
            encode_record([(5, (1,)), (5, (2,))])

    def test_empty_positions_rejected(self):
        with pytest.raises(IndexError_):
            encode_record([(5, ())])

    def test_out_of_order_positions_rejected(self):
        with pytest.raises(IndexError_):
            encode_record([(5, (3, 1))])
        with pytest.raises(IndexError_):
            encode_record([(5, (3, 3))])

    def test_compression_beats_uncompressed(self):
        postings = [(d, (d % 7, d % 7 + 3)) for d in range(0, 3000, 3)]
        record = encode_record(postings)
        assert len(record) < uncompressed_size(postings)
        # Delta+v-byte should save well over a third on clustered ids.
        assert len(record) / uncompressed_size(postings) < 0.65

    @given(
        postings=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.lists(st.integers(min_value=0, max_value=10**5), min_size=1, max_size=8, unique=True),
            ),
            max_size=30,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, postings):
        canonical = sorted((d, tuple(sorted(p))) for d, p in postings)
        record = encode_record(canonical)
        assert decode_record(record) == canonical


class TestRecordUpdate:
    def test_merge_inserts_in_order(self):
        base = encode_record([(1, (0,)), (5, (2,))])
        merged = merge_records(base, [(3, (7,)), (9, (1, 2))])
        assert decode_record(merged) == [(1, (0,)), (3, (7,)), (5, (2,)), (9, (1, 2))]

    def test_merge_replaces_existing_doc(self):
        base = encode_record([(1, (0,)), (5, (2,))])
        merged = merge_records(base, [(5, (8, 9))])
        assert decode_record(merged) == [(1, (0,)), (5, (8, 9))]

    def test_remove_document(self):
        base = encode_record([(1, (0,)), (5, (2,)), (9, (4,))])
        out, max_tf = drop_documents(base, [5])
        assert decode_record(out) == [(1, (0,)), (9, (4,))]
        assert max_tf == 1
        assert drop_documents(base, [4, 6]) is None

    def test_remove_all_documents(self):
        base = encode_record([(1, (0,))])
        assert drop_documents(base, [1]) == (encode_record([]), 0)
