"""Test oracle: the interleaved record body that v1/v2 platters store.

``df ctf (gap(doc) tf gap(pos)*tf)*df`` — INQUERY's order of the
integers the columnar body of :mod:`repro.inquery.postings` holds.  The
production code only ever reads this layout, to migrate old platters;
tests write it here, to build those platters and to pin that both
layouts have the same byte length.
"""

from repro.inquery.postings import decode_record, vbyte_encode


def encode_interleaved(postings) -> bytes:
    """Serialize sorted postings in the interleaved order."""
    out = bytearray()
    vbyte_encode(len(postings), out)
    vbyte_encode(sum(len(positions) for _doc, positions in postings), out)
    last_doc = 0
    for doc_id, positions in postings:
        vbyte_encode(doc_id - last_doc, out)
        vbyte_encode(len(positions), out)
        last_pos = 0
        for position in positions:
            vbyte_encode(position - last_pos, out)
            last_pos = position
        last_doc = doc_id
    return bytes(out)


def to_interleaved(record: bytes) -> bytes:
    """A columnar record (or chain chunk) in the interleaved order."""
    return encode_interleaved(decode_record(record))


def interleave_platter(index) -> None:
    """Rewrite every record of ``index`` in place as a pre-v3 build
    would have stored it, and flush the store."""
    for entry in index.dictionary.entries():
        if entry.storage_key:
            index.store.rewrite_in_place(entry.storage_key, to_interleaved)
    index.store.flush()
