"""Test oracle: the posting-list transcode of the chain splices.

:func:`repro.inquery.postings.split_columns`, ``join_columns`` and
``drop_documents`` splice record bytes without building a posting list.
This is what they replaced — decode, cut or concatenate or filter the
postings, encode — and what the record-layout properties compare them
against, byte for byte, on every record the store writes.
"""

from typing import List, Sequence

from repro.errors import IndexError_
from repro.inquery.postings import (
    Posting,
    decode_record,
    encode_record,
    vbyte_length,
)


def split_postings(
    postings: Sequence[Posting], target_bytes: int
) -> List[List[Posting]]:
    """Partition postings into slices of roughly ``target_bytes`` each.

    A slice takes postings while a 4-byte header estimate plus their
    entries fit in the target, and always takes at least one.
    """
    if target_bytes < 16:
        raise IndexError_("chunk target too small to hold a posting")
    slices: List[List[Posting]] = []
    current: List[Posting] = []
    used = 4  # mini-record header estimate (df + ctf)
    for doc_id, positions in postings:
        entry = vbyte_length(doc_id) + vbyte_length(len(positions)) + len(positions) * 2
        if current and used + entry > target_bytes:
            slices.append(current)
            current = []
            used = 4
        current.append((doc_id, positions))
        used += entry
    if current or not slices:
        slices.append(current)
    return slices


def chunk_stats(slices):
    """(last document ids, max tfs) of split posting slices."""
    last_docs = [postings[-1][0] for postings in slices]
    max_tfs = [max(len(p) for _d, p in postings) for postings in slices]
    return last_docs, max_tfs


def join_chunk_records(chunks: Sequence[bytes]) -> bytes:
    """Reassemble mini-record chunks into one contiguous record."""
    postings: List[Posting] = []
    for chunk in chunks:
        postings.extend(decode_record(chunk))
    return encode_record(postings)
