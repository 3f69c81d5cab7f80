"""The disk's free list: dropped file blocks go back to the platter.

``SimFile.truncate``, ``SimFileSystem.remove`` and ``create`` /
``rename`` over an existing name return a file's blocks to the disk, and
``SimDisk.allocate`` hands out the lowest freed block before it grows
the device.  The property below drives random sequences of those
operations on a small file system and checks after every step that

1. every block below ``blocks_allocated`` belongs to exactly one file or
   to the free list, and no freed block keeps a payload;
2. every file reads back like a plain-bytes model;
3. the device grows only while the free list is empty;

and at the end that a saved and reloaded image has the same files,
block numbers, free list and next allocation (4), and that replaying
the sequence gives the same block numbers (5).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DiskFullError
from repro.simdisk import BLOCK_SIZE, SimClock, SimDisk, SimFileSystem, load_image, save_image

NAMES = ("a", "b", "c")

name = st.sampled_from(NAMES)
operation = st.one_of(
    st.tuples(st.just("create"), name),
    st.tuples(
        st.just("write"), name,
        st.integers(min_value=0, max_value=3 * BLOCK_SIZE),
        st.binary(min_size=1, max_size=BLOCK_SIZE + 500),
    ),
    st.tuples(st.just("truncate"), name, st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("remove"), name),
    st.tuples(st.just("rename"), name, name),
)
operations = st.lists(operation, min_size=1, max_size=24)


def apply(fs, model, op):
    """Run ``op`` on ``fs`` and on the ``{name: bytearray}`` model; an op
    on a missing file is skipped on both."""
    kind, target = op[0], op[1]
    if kind == "create":
        fs.create(target)
        model[target] = bytearray()
    elif target not in model:
        return
    elif kind == "write":
        offset, data = op[2], op[3]
        fs.open(target).write(offset, data)
        body = model[target]
        body.extend(bytes(max(0, offset + len(data) - len(body))))
        body[offset:offset + len(data)] = data
    elif kind == "truncate":
        size = int(op[2] * len(model[target]))
        fs.open(target).truncate(size)
        del model[target][size:]
    elif kind == "remove":
        fs.remove(target)
        del model[target]
    elif op[2] != target:
        fs.rename(target, op[2])
        model[op[2]] = model.pop(target)


def layout(fs):
    """Each file's disk block numbers, and the free list."""
    return {n: list(fs.open(n)._blocks) for n in fs.names()}, fs.disk.free_blocks


def check_accounting(fs):
    disk = fs.disk
    held = [b for n in fs.names() for b in fs.open(n)._blocks]
    assert sorted(held + disk.free_blocks) == list(range(disk.blocks_allocated))
    assert set(disk._blocks) <= set(held)


def check_contents(fs, model):
    assert fs.names() == sorted(model)
    for n, body in model.items():
        assert fs.open(n).size == len(body)
        assert fs.open(n).read(0, len(body)) == bytes(body)


def run(ops):
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=2)
    model = {}
    for op in ops:
        before, free_before = fs.disk.blocks_allocated, fs.disk.free_blocks
        apply(fs, model, op)
        grew = fs.disk.blocks_allocated > before
        if grew:
            # Writes allocate and free nothing, so a grown device means
            # the write used up every block that was free.
            assert op[0] == "write" and not fs.disk.free_blocks, (op, free_before)
        check_accounting(fs)
        check_contents(fs, model)
    return fs, model


@given(ops=operations)
@settings(max_examples=120, deadline=None)
def test_every_block_is_held_once_and_reads_match_the_model(ops):
    fs, model = run(ops)
    fs.chill()  # the disk alone, not the FS cache, must hold the bytes
    check_contents(fs, model)


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_image_and_replay_reproduce_the_layout(ops):
    fs, model = run(ops)
    assert layout(run(ops)[0]) == layout(fs)

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "machine.img"
        save_image(fs, path)
        loaded = load_image(path)
    assert layout(loaded) == layout(fs)
    assert loaded.disk.blocks_allocated == fs.disk.blocks_allocated
    check_contents(loaded, model)
    assert loaded.disk.allocate() == fs.disk.allocate()


def test_allocate_takes_the_lowest_freed_block_first():
    disk = SimDisk(SimClock())
    for _ in range(5):
        disk.allocate()
    disk.write_block(3, b"\x07" * BLOCK_SIZE)
    for block_no in (3, 1, 4):
        disk.free(block_no)
    assert disk.free_blocks == [1, 3, 4]
    assert disk.read_block(3) == bytes(BLOCK_SIZE)  # the payload is gone
    assert [disk.allocate() for _ in range(4)] == [1, 3, 4, 5]
    assert disk.allocate(2) == 6  # a run of blocks always grows the device
    assert disk.blocks_allocated == 8


def test_a_full_disk_with_free_blocks_still_allocates():
    fs = SimFileSystem(SimDisk(SimClock(), capacity_blocks=4))
    first = fs.create("first")
    first.write(0, b"x" * (4 * BLOCK_SIZE))
    first.truncate(0)
    second = fs.create("second")
    second.write(0, b"y" * (4 * BLOCK_SIZE))
    fs.remove("second")
    fs.create("first").write(0, b"z" * (4 * BLOCK_SIZE))
    assert fs.disk.blocks_allocated == 4
    with pytest.raises(DiskFullError):
        fs.open("first").write(4 * BLOCK_SIZE, b"!")


def test_a_cut_block_reads_zeroes_past_the_cut_when_the_file_grows():
    fs = SimFileSystem(SimDisk(SimClock()))
    f = fs.create("f")
    f.write(0, b"\xff" * 100)
    f.truncate(10)
    f.write(50, b"!")
    assert f.read(0, 51) == b"\xff" * 10 + bytes(40) + b"!"
