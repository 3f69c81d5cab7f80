"""Unit tests for B-tree node serialization and search helpers."""

import pytest

from repro.btree.node import (
    InteriorNode,
    LeafNode,
    find_key,
    insertion_point,
    leaf_entry_size,
    leaf_value,
    parse_node,
)
from repro.errors import BTreeError


def test_leaf_roundtrip_inline_and_locator():
    leaf = LeafNode(
        keys=[3, 7, 9],
        values=[b"tiny", (4096, 500), b""],
        next_leaf=12288,
    )
    back = parse_node(leaf.to_bytes())
    assert back.is_leaf
    assert back.keys == [3, 7, 9]
    assert back.values == [b"tiny", (4096, 500), b""]
    assert back.next_leaf == 12288


def test_leaf_value_finds_what_the_parsed_leaf_holds():
    leaf = LeafNode(
        keys=[3, 7, 9, 12, 40],
        values=[b"tiny", (4096, 500), b"", b"\x07" * 16, (8192, 17)],
    )
    data = leaf.to_bytes()
    for key, value in zip(leaf.keys, leaf.values):
        assert leaf_value(data, key) == value
    for absent in (0, 4, 8, 13, 41):
        assert leaf_value(data, absent) is None
    assert leaf_value(LeafNode().to_bytes(), 3) is None
    with pytest.raises(BTreeError):
        leaf_value(InteriorNode(keys=[1], children=[0, 4096]).to_bytes(), 1)


def test_empty_leaf_roundtrip():
    back = parse_node(LeafNode().to_bytes())
    assert back.keys == []
    assert back.values == []


def test_interior_roundtrip():
    node = InteriorNode(keys=[10, 20, 30], children=[0, 4096, 8192, 12288])
    back = parse_node(node.to_bytes())
    assert not back.is_leaf
    assert back.keys == [10, 20, 30]
    assert back.children == [0, 4096, 8192, 12288]


def test_parse_rejects_garbage():
    with pytest.raises(BTreeError):
        parse_node(b"")
    with pytest.raises(BTreeError):
        parse_node(b"Xjunk")


def test_child_for_routes_by_separator():
    node = InteriorNode(keys=[10, 20], children=[100, 200, 300])
    assert node.child_for(5) == 100
    assert node.child_for(10) == 200   # separator key goes right
    assert node.child_for(15) == 200
    assert node.child_for(20) == 300
    assert node.child_for(99) == 300


def test_used_bytes_matches_serialized_length():
    leaf = LeafNode(keys=[1, 2], values=[b"abcde", (0, 9)])
    assert leaf.used_bytes() == len(leaf.to_bytes())
    node = InteriorNode(keys=[1], children=[0, 4096])
    assert node.used_bytes() == len(node.to_bytes())


def test_leaf_entry_size_inline_vs_locator():
    assert leaf_entry_size(b"12345") == leaf_entry_size(b"") + 5
    assert leaf_entry_size((0, 10)) == leaf_entry_size((1 << 40, 1 << 20))


def test_find_key():
    keys = [2, 4, 6, 8]
    assert find_key(keys, 4) == 1
    assert find_key(keys, 8) == 3
    assert find_key(keys, 5) is None
    assert find_key([], 1) is None


def test_insertion_point():
    keys = [2, 4, 6]
    assert insertion_point(keys, 1) == 0
    assert insertion_point(keys, 3) == 1
    assert insertion_point(keys, 7) == 3
    assert insertion_point(keys, 4) == 1  # equal key inserts before
