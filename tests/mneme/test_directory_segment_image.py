"""The medium and large pools' segment keeps the image it was read from.

``DirectorySegment.from_bytes`` checks a segment and indexes its
directory without slicing an object; ``get`` slices the one object
asked for, and writing back a segment nothing was put into or removed
from returns the image.  Whatever it writes must be byte for byte what
packing every object from scratch writes
(:func:`tests.full_images.directory_segment_bytes`), and what it reads
back must hold the same objects.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import BadBlockError, PoolError
from repro.mneme import DirectorySegment

from ..full_images import directory_segment_bytes

oid_st = st.integers(0, 40)
payload_st = st.binary(max_size=300)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("put"), oid_st, payload_st),
        st.tuples(st.just("remove"), oid_st, st.just(b"")),
    ),
    max_size=30,
)


@given(
    pool_id=st.integers(0, 0xFFFF),
    fill=st.dictionaries(oid_st, payload_st, max_size=20),
    ops=ops_st,
    reload=st.booleans(),
    pad=st.sampled_from([0, 16384]),
)
@settings(max_examples=150, deadline=None)
def test_bytes_equal_a_full_pack_across_puts_removes_and_reloads(
    pool_id, fill, ops, reload, pad
):
    objects = dict(fill)
    segment = DirectorySegment(pool_id, fill)
    for op, oid, data in ops:
        if reload:
            segment = DirectorySegment.from_bytes(segment.to_bytes(pad_to=pad))
        if op == "put":
            segment.put(oid, data)
            objects[oid] = data
        elif oid in objects:
            segment.remove(oid)
            del objects[oid]
        else:
            with pytest.raises(PoolError):
                segment.remove(oid)
    raw = segment.to_bytes(pad_to=pad)
    assert raw == directory_segment_bytes(pool_id, objects, pad)
    assert segment.byte_size == len(directory_segment_bytes(pool_id, objects))

    back = DirectorySegment.from_bytes(raw)
    assert not back._objects  # the directory is indexed, no object sliced
    assert back.pool_id == pool_id and len(back) == len(objects)
    assert back.byte_size == segment.byte_size
    assert back.to_bytes() == directory_segment_bytes(pool_id, objects)
    assert back.to_bytes(pad_to=pad) == raw
    for oid in range(41):
        if oid in objects:
            assert oid in back and back.get(oid) == objects[oid]
        else:
            assert oid not in back
            with pytest.raises(PoolError):
                back.get(oid)


@given(
    fill=st.dictionaries(oid_st, payload_st, min_size=1, max_size=10),
    at=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_a_corrupt_magic_count_directory_or_payload_fails_at_load(fill, at):
    raw = bytearray(DirectorySegment(2, fill).to_bytes())
    # Every byte but the pool id (4-5), which no check covers.
    at = [*range(4), *range(6, len(raw))][at % (len(raw) - 2)]
    raw[at] ^= 0x5A
    with pytest.raises(BadBlockError):
        DirectorySegment.from_bytes(bytes(raw))
