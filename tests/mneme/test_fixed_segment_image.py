"""The small pool's segment keeps its slot body packed.

``FixedSlotSegment`` patches its 255 x 16-byte body in place on every
``put`` and ``clear``; what it writes must be byte for byte what packing
every slot from scratch writes (:func:`tests.full_images.fixed_segment_bytes`),
and what it reads back must hold the same slots.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import BadBlockError, PoolError
from repro.mneme import LOGICAL_SEGMENT_OBJECTS, SMALL_OBJECT_MAX, FixedSlotSegment

from ..full_images import fixed_segment_bytes

slot_st = st.integers(0, LOGICAL_SEGMENT_OBJECTS - 1)
payload_st = st.binary(max_size=SMALL_OBJECT_MAX)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("put"), slot_st, payload_st),
        st.tuples(st.just("clear"), slot_st, st.just(b"")),
    ),
    max_size=60,
)


@given(
    pool_id=st.integers(0, 0xFFFF),
    logseg=st.integers(0, 2**32 - 1),
    fill=st.lists(payload_st, max_size=LOGICAL_SEGMENT_OBJECTS),
    ops=ops_st,
    reload=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_bytes_equal_a_full_pack_across_fills_and_clears(
    pool_id, logseg, fill, ops, reload
):
    slots = list(fill) + [None] * (LOGICAL_SEGMENT_OBJECTS - len(fill))
    segment = (
        FixedSlotSegment.filled(pool_id, logseg, fill) if fill
        else FixedSlotSegment(pool_id, logseg)
    )
    for op, slot, data in ops:
        if reload:
            segment = FixedSlotSegment.from_bytes(segment.to_bytes())
        if op == "put":
            segment.put(slot, data)
            slots[slot] = data
        else:
            segment.clear(slot)
            slots[slot] = None
    raw = segment.to_bytes()
    assert raw == fixed_segment_bytes(pool_id, logseg, slots)
    back = FixedSlotSegment.from_bytes(raw)
    assert back.used == segment.used == sum(data is not None for data in slots)
    assert back.to_bytes() == raw
    for slot, data in enumerate(slots):
        if data is None:
            with pytest.raises(PoolError):
                back.get(slot)
        else:
            assert back.get(slot) == data


@given(
    fill=st.lists(payload_st, min_size=1, max_size=20),
    at=st.one_of(st.integers(8, 11), st.integers(16, 4095)),  # CRC or body
)
@settings(max_examples=40, deadline=None)
def test_a_corrupt_body_or_crc_fails_at_load(fill, at):
    raw = bytearray(FixedSlotSegment.filled(1, 3, fill).to_bytes())
    raw[at] ^= 0x5A
    with pytest.raises(BadBlockError):
        FixedSlotSegment.from_bytes(bytes(raw))


def test_get_of_an_empty_or_cleared_slot_raises():
    segment = FixedSlotSegment(1, 0)
    segment.put(4, b"abc")
    segment.clear(4)
    for slot in (0, 4, LOGICAL_SEGMENT_OBJECTS - 1):
        with pytest.raises(PoolError):
            segment.get(slot)
    with pytest.raises(PoolError):
        FixedSlotSegment.filled(1, 0, [b"x" * (SMALL_OBJECT_MAX + 1)])
