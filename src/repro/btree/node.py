"""B-tree node formats and their on-page serialization.

The keyed file maps a 32-bit term id to one inverted list record.  Leaves
hold the actual entries; records no bigger than
:data:`INLINE_MAX` bytes are stored inline in the leaf (saving the second
file access for the tiny lists Zipf guarantees), larger records are
referenced by (heap offset, length) locators.  Interior nodes route keys
to children with the classic B+-tree rule: child ``i`` covers keys
``< keys[i]``, the last child covers the rest.
"""

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..errors import BTreeError

#: Records at most this many bytes are stored inline in the leaf entry.
INLINE_MAX = 16

#: ``next leaf`` value marking the end of the leaf chain.
NO_LEAF = 0xFFFFFFFFFFFFFFFF

_LEAF_HDR = struct.Struct("<cHQ")      # tag, entry count, next-leaf offset
_INT_HDR = struct.Struct("<cH")        # tag, key count
_KEY = struct.Struct("<I")
_CHILD = struct.Struct("<Q")
_INLINE = struct.Struct("<IBH")        # key, tag=0, length
_LOCATOR = struct.Struct("<IBQI")      # key, tag=1, offset, length

#: A leaf value: either the record bytes themselves or a heap locator.
LeafValue = Union[bytes, Tuple[int, int]]


def leaf_entry_size(value: LeafValue) -> int:
    """On-page bytes consumed by one leaf entry holding ``value``."""
    if isinstance(value, bytes):
        return _INLINE.size + len(value)
    return _LOCATOR.size


@dataclass
class LeafNode:
    """A leaf: sorted keys with inline records or heap locators."""

    keys: List[int] = field(default_factory=list)
    values: List[LeafValue] = field(default_factory=list)
    next_leaf: int = NO_LEAF

    is_leaf = True

    def used_bytes(self) -> int:
        """Serialized size of this node."""
        return _LEAF_HDR.size + sum(leaf_entry_size(v) for v in self.values)

    def to_bytes(self) -> bytes:
        parts = [_LEAF_HDR.pack(b"L", len(self.keys), self.next_leaf)]
        for key, value in zip(self.keys, self.values):
            if isinstance(value, bytes):
                parts.append(_INLINE.pack(key, 0, len(value)))
                parts.append(value)
            else:
                offset, length = value
                parts.append(_LOCATOR.pack(key, 1, offset, length))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "LeafNode":
        tag, count, next_leaf = _LEAF_HDR.unpack_from(data, 0)
        if tag != b"L":
            raise BTreeError(f"expected leaf page, found tag {tag!r}")
        node = cls(next_leaf=next_leaf)
        pos = _LEAF_HDR.size
        for _ in range(count):
            key, kind, length = _INLINE.unpack_from(data, pos)
            if kind == 0:
                pos += _INLINE.size
                node.keys.append(key)
                node.values.append(bytes(data[pos:pos + length]))
                pos += length
            else:
                key, _, offset, length = _LOCATOR.unpack_from(data, pos)
                pos += _LOCATOR.size
                node.keys.append(key)
                node.values.append((offset, length))
        return node


def leaf_value(data: bytes, key: int) -> Optional[LeafValue]:
    """The value a serialized leaf holds under ``key``, or ``None``.

    The read path's parse: entry headers are walked in key order and
    the walk stops at the first key not below ``key``, so no entry but
    the one found is materialized.
    """
    tag, count, _next_leaf = _LEAF_HDR.unpack_from(data, 0)
    if tag != b"L":
        raise BTreeError(f"expected leaf page, found tag {tag!r}")
    pos = _LEAF_HDR.size
    for _ in range(count):
        entry_key, kind, length = _INLINE.unpack_from(data, pos)
        if entry_key >= key:
            if entry_key != key:
                return None
            if kind == 0:
                return bytes(data[pos + _INLINE.size:pos + _INLINE.size + length])
            _key, _kind, offset, length = _LOCATOR.unpack_from(data, pos)
            return (offset, length)
        pos += _INLINE.size + length if kind == 0 else _LOCATOR.size
    return None


@dataclass
class InteriorNode:
    """An interior router: ``len(children) == len(keys) + 1``."""

    keys: List[int] = field(default_factory=list)
    children: List[int] = field(default_factory=list)

    is_leaf = False

    def used_bytes(self) -> int:
        return (
            _INT_HDR.size
            + _KEY.size * len(self.keys)
            + _CHILD.size * len(self.children)
        )

    def child_for(self, key: int) -> int:
        """Page offset of the child responsible for ``key``."""
        lo, hi = 0, len(self.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if key < self.keys[mid]:
                hi = mid
            else:
                lo = mid + 1
        return self.children[lo]

    def to_bytes(self) -> bytes:
        parts = [_INT_HDR.pack(b"I", len(self.keys))]
        parts.extend(_KEY.pack(k) for k in self.keys)
        parts.extend(_CHILD.pack(c) for c in self.children)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "InteriorNode":
        tag, count = _INT_HDR.unpack_from(data, 0)
        if tag != b"I":
            raise BTreeError(f"expected interior page, found tag {tag!r}")
        node = cls()
        pos = _INT_HDR.size
        for _ in range(count):
            node.keys.append(_KEY.unpack_from(data, pos)[0])
            pos += _KEY.size
        for _ in range(count + 1):
            node.children.append(_CHILD.unpack_from(data, pos)[0])
            pos += _CHILD.size
        return node


def parse_node(data: bytes) -> Union[LeafNode, InteriorNode]:
    """Deserialize whichever node kind the page holds."""
    if not data:
        raise BTreeError("empty page")
    if data[:1] == b"L":
        return LeafNode.from_bytes(data)
    if data[:1] == b"I":
        return InteriorNode.from_bytes(data)
    raise BTreeError(f"unknown page tag {data[:1]!r}")


def find_key(keys: List[int], key: int) -> Optional[int]:
    """Index of ``key`` in a sorted key list, or ``None``."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(keys) and keys[lo] == key:
        return lo
    return None


def insertion_point(keys: List[int], key: int) -> int:
    """Index at which ``key`` keeps the key list sorted."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
