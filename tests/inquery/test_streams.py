"""Unit tests for posting streams and the document-at-a-time merge."""

import pytest

from repro.inquery import (
    ChunkedRecordStream,
    WholeRecordStream,
    encode_record,
    merge_streams,
)
from repro.errors import IndexError_

from ..transcode import join_chunk_records, split_postings


POSTINGS = [(d, (0, d % 5 + 1)) for d in range(1, 101, 3)]


class TestSplitPostings:
    def test_slices_cover_everything_in_order(self):
        slices = split_postings(POSTINGS, target_bytes=64)
        assert len(slices) > 1
        flattened = [p for s in slices for p in s]
        assert flattened == POSTINGS

    def test_each_slice_is_a_valid_record(self):
        from repro.inquery import decode_record

        for postings in split_postings(POSTINGS, target_bytes=64):
            record = encode_record(postings)
            assert decode_record(record) == postings

    def test_join_chunks_equals_direct_encoding(self):
        chunks = [encode_record(s) for s in split_postings(POSTINGS, 64)]
        assert join_chunk_records(chunks) == encode_record(POSTINGS)

    def test_single_slice_for_small_input(self):
        slices = split_postings(POSTINGS[:2], target_bytes=4096)
        assert len(slices) == 1

    def test_empty_input(self):
        assert split_postings([], target_bytes=64) == [[]]

    def test_too_small_target_rejected(self):
        with pytest.raises(IndexError_):
            split_postings(POSTINGS, target_bytes=4)


class TestWholeRecordStream:
    def test_yields_all_postings(self):
        stream = WholeRecordStream(encode_record(POSTINGS))
        assert list(stream) == POSTINGS

    def test_resident_is_record_size(self):
        record = encode_record(POSTINGS)
        stream = WholeRecordStream(record)
        stream.peek()
        assert stream.resident_bytes == len(record)

    def test_resident_drops_at_end(self):
        stream = WholeRecordStream(encode_record(POSTINGS))
        list(stream)
        assert stream.peek() is None
        assert stream.resident_bytes == 0

    def test_peek_does_not_consume(self):
        stream = WholeRecordStream(encode_record(POSTINGS))
        assert stream.peek() == POSTINGS[0]
        assert stream.peek() == POSTINGS[0]
        assert stream.advance() == POSTINGS[0]
        assert stream.peek() == POSTINGS[1]


class TestChunkedRecordStream:
    def chunks(self):
        return [encode_record(s) for s in split_postings(POSTINGS, 64)]

    def test_yields_all_postings(self):
        stream = ChunkedRecordStream(iter(self.chunks()))
        assert list(stream) == POSTINGS

    def test_resident_is_one_chunk(self):
        chunks = self.chunks()
        stream = ChunkedRecordStream(iter(chunks))
        stream.peek()
        assert stream.resident_bytes <= max(len(c) for c in chunks)
        assert stream.resident_bytes < len(encode_record(POSTINGS))

    def test_empty(self):
        stream = ChunkedRecordStream(iter([]))
        assert stream.peek() is None
        assert list(stream) == []


class TestMergeStreams:
    def make(self, postings):
        return WholeRecordStream(encode_record(postings))

    def test_single_stream(self):
        merged = list(merge_streams([(0, self.make(POSTINGS[:5]))]))
        assert [doc for doc, _e in merged] == [d for d, _p in POSTINGS[:5]]

    def test_union_in_doc_order(self):
        a = [(1, (0,)), (5, (0,)), (9, (0,))]
        b = [(2, (0,)), (5, (1,)), (8, (0,))]
        merged = list(merge_streams([(0, self.make(a)), (1, self.make(b))]))
        assert [doc for doc, _e in merged] == [1, 2, 5, 8, 9]

    def test_evidence_gathered_per_document(self):
        a = [(5, (0,))]
        b = [(5, (1, 2))]
        merged = list(merge_streams([(0, self.make(a)), (1, self.make(b))]))
        doc, evidence = merged[0]
        assert doc == 5
        assert dict(evidence) == {0: (5, (0,)), 1: (5, (1, 2))}

    def test_no_streams(self):
        assert list(merge_streams([])) == []

    def test_empty_streams(self):
        merged = list(merge_streams([(0, ChunkedRecordStream(iter([])))]))
        assert merged == []
