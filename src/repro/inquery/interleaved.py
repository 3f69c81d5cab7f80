"""The record body of v1/v2 platters, read once to migrate them.

Platters written before dictionary v3 store INQUERY's interleaved body,
``df ctf (gap(doc) tf gap(pos)*tf)*df``.  :func:`to_columnar` rewrites
one such record, or one chunk of a chained record, into the columnar
body of :mod:`repro.inquery.postings`.  Both hold the same integers, so
the rewrite has the same byte length and can go back to the object it
came from; :meth:`~repro.inquery.indexer.CollectionIndex.open` does
that for every record of an old platter.  Nothing on the query path
reads this layout.
"""

from typing import List

from ..errors import IndexError_
from .postings import Posting, encode_record, vbyte_decode


def decode_interleaved(record: bytes) -> List[Posting]:
    """Postings of an interleaved record."""
    df, pos = vbyte_decode(record, 0)
    _ctf, pos = vbyte_decode(record, pos)
    postings: List[Posting] = []
    doc_id = 0
    for _ in range(df):
        gap, pos = vbyte_decode(record, pos)
        doc_id += gap
        tf, pos = vbyte_decode(record, pos)
        positions = []
        position = 0
        for _ in range(tf):
            pgap, pos = vbyte_decode(record, pos)
            position += pgap
            positions.append(position)
        postings.append((doc_id, tuple(positions)))
    return postings


def to_columnar(record: bytes) -> bytes:
    """The columnar record holding ``record``'s postings, same length.

    Raises
    ------
    IndexError_
        If ``record`` is not a well-formed interleaved record (its
        re-encoding would not fit back in place).
    """
    columnar = encode_record(decode_interleaved(record))
    if len(columnar) != len(record):
        raise IndexError_(
            f"{len(record)}-byte record is not an interleaved record body"
        )
    return columnar
