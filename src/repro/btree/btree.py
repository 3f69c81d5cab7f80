"""Disk-based B+-tree keyed file — the baseline the paper replaced.

This is a faithful stand-in for INQUERY's custom B-tree package, including
the two properties the paper blames for its extra disk traffic:

* **Limited, unsophisticated node caching** — only the root node is kept
  in memory.  Every other node touched by a lookup costs a file access,
  so a lookup in a tree of height *h* performs ``h - 1`` node accesses
  plus one record access (unless the record was small enough to inline in
  the leaf).  The paper: "every record lookup requires more than one disk
  access.  This problem gets worse as the file grows and the height of
  the index tree increases."
* **Layout insensitive to the transfer block** — node pages are 4 KB
  while the file system transfers 8 KB blocks, and records are appended
  wherever the heap ends.

Records are record-at-a-time: inserting a key appends its record to the
heap and the old record's space leaks, which is exactly the in-place
space-management problem for inverted-list update that Section 2 of the
paper describes.
"""

import struct
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import BTreeError, DuplicateKeyError, KeyNotFoundError
from ..simdisk import SimFile
from .node import (
    INLINE_MAX,
    NO_LEAF,
    InteriorNode,
    LeafNode,
    LeafValue,
    find_key,
    insertion_point,
    leaf_entry_size,
    leaf_value,
    parse_node,
)
from .page import NODE_PAGE_SIZE, PageAllocator

_META = struct.Struct("<4sQIQ")  # magic, root offset, height, entry count
_MAGIC = b"BTKF"


class BTreeKeyedFile:
    """A keyed file mapping 32-bit term ids to variable-size records.

    Parameters
    ----------
    file:
        Backing simulated file (created empty for a new tree, or holding a
        previously built tree for :meth:`open`).
    page_size:
        Node page size in bytes; deliberately defaults to half the file
        system's transfer block.
    interior_order:
        Maximum number of keys in an interior node.
    inline_max:
        Records at most this size are stored inside the leaf entry.
    """

    def __init__(
        self,
        file: SimFile,
        page_size: int = NODE_PAGE_SIZE,
        interior_order: int = 128,
        inline_max: int = INLINE_MAX,
    ):
        if interior_order < 3:
            raise BTreeError("interior order must be at least 3")
        if inline_max < 0 or inline_max > 0xFFFF:
            raise BTreeError("inline_max out of range")
        self._pages = PageAllocator(file, page_size)
        self._order = interior_order
        self._inline_max = inline_max
        self._root: Union[LeafNode, InteriorNode, None] = None
        self._root_offset = 0
        self._height = 0
        self._count = 0
        #: Number of record lookups performed (the denominator of the
        #: paper's ``A`` statistic).
        self.record_lookups = 0
        if file.size == 0:
            self._bootstrap()
        else:
            self._load_meta()

    # ------------------------------------------------------------------
    # Construction / persistence
    # ------------------------------------------------------------------

    def _bootstrap(self) -> None:
        """Lay out a fresh tree: meta page then an empty root leaf."""
        meta_page = self._pages.allocate_page()
        if meta_page != 0:
            raise BTreeError("meta page must be the first page")
        self._root = LeafNode()
        self._root_offset = self._pages.allocate_page()
        self._height = 1
        self._count = 0
        self._write_node(self._root_offset, self._root)
        self.sync()

    def _load_meta(self) -> None:
        data = self._pages.read_page(0)
        magic, root, height, count = _META.unpack_from(data, 0)
        if magic != _MAGIC:
            raise BTreeError("not a B-tree keyed file")
        self._root_offset = root
        self._height = height
        self._count = count
        # The root is the one node the package caches across lookups.
        self._root = parse_node(self._pages.read_page(root))

    def sync(self) -> None:
        """Write the meta page (root location, height, entry count)."""
        self._pages.write_page(
            0, _META.pack(_MAGIC, self._root_offset, self._height, self._count)
        )

    def drop_user_caches(self) -> None:
        """Forget the cached root node — a fresh process opening the file.

        The root (the only node the package caches) is re-read from the
        file, which is the open-time cost the paper excludes from its
        timings.
        """
        self._load_meta()

    @property
    def height(self) -> int:
        """Levels in the tree; 1 means the root is a leaf."""
        return self._height

    @property
    def file_size(self) -> int:
        """Total bytes in the backing file (Table 1's "B-Tree Size")."""
        return self._pages.file.size

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> bytes:
        """Fetch the record stored under ``key``.

        Raises
        ------
        KeyNotFoundError
            If no record exists for ``key``.
        """
        self.record_lookups += 1
        value = self._find(key)
        if value is None:
            raise KeyNotFoundError(key)
        if isinstance(value, bytes):
            return value
        offset, length = value
        return self._pages.heap_read(offset, length)

    def contains(self, key: int) -> bool:
        """Membership test; costs the node accesses but no record read."""
        return self._find(key) is not None

    def _find(self, key: int) -> Optional[LeafValue]:
        """Walk from the cached root to the leaf covering ``key`` and
        return its value there (``None`` if absent); the leaf page is
        scanned for the key, not parsed."""
        node = self._root
        if node.is_leaf:
            idx = find_key(node.keys, key)
            return None if idx is None else node.values[idx]
        while True:
            page = self._pages.read_page(node.child_for(key))
            if page[:1] == b"L":
                return leaf_value(page, key)
            node = parse_node(page)

    def _descend_path(
        self, key: int
    ) -> List[Tuple[int, Union[LeafNode, InteriorNode]]]:
        """The (offset, parsed node) path from the cached root to the
        leaf covering ``key`` — the same pages :meth:`_find` reads."""
        path = [(self._root_offset, self._root)]
        node = self._root
        while not node.is_leaf:
            child = node.child_for(key)
            node = parse_node(self._pages.read_page(child))
            path.append((child, node))
        return path

    # ------------------------------------------------------------------
    # Modification
    # ------------------------------------------------------------------

    def insert(self, key: int, record: bytes) -> None:
        """Add a new record.

        Raises
        ------
        DuplicateKeyError
            If ``key`` already has a record; use :meth:`replace` instead.
        """
        path = self._descend_path(key)
        leaf_offset, leaf = path[-1]
        if find_key(leaf.keys, key) is not None:
            raise DuplicateKeyError(key)
        value = self._make_value(record)
        idx = insertion_point(leaf.keys, key)
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._count += 1
        if leaf.used_bytes() <= self._pages.page_size:
            self._write_node(leaf_offset, leaf)
        else:
            self._split_leaf(path)
        self.sync()

    def replace(self, key: int, record: bytes) -> None:
        """Overwrite the record under ``key``.

        The old record's heap space is *not* reclaimed — the in-file
        space-management problem the paper describes for inverted-list
        modification.
        """
        path = self._descend_path(key)
        leaf_offset, leaf = path[-1]
        idx = find_key(leaf.keys, key)
        if idx is None:
            raise KeyNotFoundError(key)
        leaf.values[idx] = self._make_value(record)
        if leaf.used_bytes() <= self._pages.page_size:
            self._write_node(leaf_offset, leaf)
        else:
            self._split_leaf(path)
        self.sync()

    def overwrite(self, key: int, record: bytes) -> None:
        """Overwrite the record under ``key`` where it lies.

        Unlike :meth:`replace`, nothing moves: ``record`` must have the
        stored record's length, and goes into its leaf entry or its
        heap extent.

        Raises
        ------
        KeyNotFoundError
            If no record exists for ``key``.
        BTreeError
            If ``record`` differs in length from the stored record.
        """
        path = self._descend_path(key)
        leaf_offset, leaf = path[-1]
        idx = find_key(leaf.keys, key)
        if idx is None:
            raise KeyNotFoundError(key)
        value = leaf.values[idx]
        inline = isinstance(value, bytes)
        stored = len(value) if inline else value[1]
        if len(record) != stored:
            raise BTreeError(
                f"overwrite of key {key} must keep its {stored} bytes, got {len(record)}"
            )
        if inline:
            leaf.values[idx] = bytes(record)
            self._write_node(leaf_offset, leaf)
        else:
            self._pages.file.write(value[0], bytes(record))

    def delete(self, key: int) -> None:
        """Remove the record under ``key`` (lazy: no rebalancing).

        Collections are archival in INQUERY, so deletion is rare; the
        entry is dropped from its leaf but pages never merge.
        """
        path = self._descend_path(key)
        leaf_offset, leaf = path[-1]
        idx = find_key(leaf.keys, key)
        if idx is None:
            raise KeyNotFoundError(key)
        del leaf.keys[idx]
        del leaf.values[idx]
        self._count -= 1
        self._write_node(leaf_offset, leaf)
        self.sync()

    def _make_value(self, record: bytes) -> LeafValue:
        if len(record) <= self._inline_max:
            return bytes(record)
        offset = self._pages.heap_append(record)
        return (offset, len(record))

    def _split_leaf(self, path: List[Tuple[int, Union[LeafNode, InteriorNode]]]) -> None:
        """Split an overfull leaf and propagate upward as needed."""
        leaf_offset, leaf = path[-1]
        half = self._split_point(leaf)
        right = LeafNode(
            keys=leaf.keys[half:], values=leaf.values[half:], next_leaf=leaf.next_leaf
        )
        right_offset = self._pages.allocate_page()
        leaf.keys = leaf.keys[:half]
        leaf.values = leaf.values[:half]
        leaf.next_leaf = right_offset
        self._write_node(right_offset, right)
        self._write_node(leaf_offset, leaf)
        self._insert_separator(path[:-1], right.keys[0], right_offset)

    def _split_point(self, leaf: LeafNode) -> int:
        """Entry index that splits a leaf's bytes roughly in half."""
        target = leaf.used_bytes() // 2
        used = 0
        for i, value in enumerate(leaf.values):
            used += leaf_entry_size(value)
            if used >= target and i + 1 < len(leaf.values):
                return i + 1
        return max(1, len(leaf.values) - 1)

    def _insert_separator(
        self,
        path: List[Tuple[int, Union[LeafNode, InteriorNode]]],
        key: int,
        child_offset: int,
    ) -> None:
        """Insert (key, child) into the parent, splitting upward if full."""
        if not path:
            # The root itself split: grow the tree by one level.
            old_root_offset = self._root_offset
            new_root = InteriorNode(keys=[key], children=[old_root_offset, child_offset])
            self._root = new_root
            self._root_offset = self._pages.allocate_page()
            self._height += 1
            self._write_node(self._root_offset, new_root)
            return
        parent_offset, parent = path[-1]
        idx = insertion_point(parent.keys, key)
        parent.keys.insert(idx, key)
        parent.children.insert(idx + 1, child_offset)
        fits = (
            len(parent.keys) <= self._order
            and parent.used_bytes() <= self._pages.page_size
        )
        if fits:
            self._write_node(parent_offset, parent)
            return
        half = len(parent.keys) // 2
        separator = parent.keys[half]
        right = InteriorNode(
            keys=parent.keys[half + 1:], children=parent.children[half + 1:]
        )
        parent.keys = parent.keys[:half]
        parent.children = parent.children[:half + 1]
        right_offset = self._pages.allocate_page()
        self._write_node(right_offset, right)
        self._write_node(parent_offset, parent)
        self._insert_separator(path[:-1], separator, right_offset)

    def _write_node(self, offset: int, node: Union[LeafNode, InteriorNode]) -> None:
        self._pages.write_page(offset, node.to_bytes())
        if offset == self._root_offset:
            self._root = node

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------

    def bulk_load(self, items: Iterable[Tuple[int, bytes]]) -> None:
        """Build the tree bottom-up from key-sorted ``(key, record)`` pairs.

        This is how the inverted file is created: the indexer's external
        sort emits records in term-id order.  Layout follows the custom
        package's two-region scheme: all records are appended to the
        heap first, then the index pages (leaves, then interior levels)
        are written as a contiguous region after them.  Index pages
        therefore never share transfer blocks with the records they
        point at — a node read prefetches only other nodes.  Only valid
        on an empty tree.
        """
        if self._count:
            raise BTreeError("bulk_load requires an empty tree")
        capacity = self._pages.page_size
        leaves: List[LeafNode] = []
        leaf = LeafNode()
        leaf_bytes = leaf.used_bytes()
        last_key: Optional[int] = None

        # Phase 1: records to the heap, leaf contents in memory.
        for key, record in items:
            if last_key is not None and key <= last_key:
                raise BTreeError(
                    f"bulk_load input not strictly sorted: {key} after {last_key}"
                )
            last_key = key
            value = self._make_value(record)
            entry = leaf_entry_size(value)
            if leaf.keys and leaf_bytes + entry > capacity:
                leaves.append(leaf)
                leaf = LeafNode()
                leaf_bytes = leaf.used_bytes()
            leaf.keys.append(key)
            leaf.values.append(value)
            leaf_bytes += entry
            self._count += 1
        if leaf.keys or not leaves:
            leaves.append(leaf)

        # Phase 2: the index region.  Page allocation is sequential, so
        # each leaf's successor offset is known before it is written and
        # the chain needs no patch writes.
        boundaries: List[Tuple[int, int]] = []  # (first key, leaf offset)
        offsets = []
        for node in leaves:
            offsets.append(self._pages.allocate_page())
        for index, node in enumerate(leaves):
            node.next_leaf = offsets[index + 1] if index + 1 < len(offsets) else NO_LEAF
            self._pages.write_page(offsets[index], node.to_bytes())
            first_key = node.keys[0] if node.keys else 0
            boundaries.append((first_key, offsets[index]))

        self._build_interior_levels(boundaries)
        self.sync()

    def _build_interior_levels(self, boundaries: List[Tuple[int, int]]) -> None:
        """Stack interior levels over the leaf boundary list."""
        level = boundaries
        height = 1
        while len(level) > 1:
            next_level: List[Tuple[int, int]] = []
            for start in range(0, len(level), self._order + 1):
                group = level[start:start + self._order + 1]
                node = InteriorNode(
                    keys=[k for k, _ in group[1:]],
                    children=[off for _, off in group],
                )
                offset = self._pages.allocate_page()
                self._pages.write_page(offset, node.to_bytes())
                next_level.append((group[0][0], offset))
            level = next_level
            height += 1
        self._root_offset = level[0][1]
        self._root = parse_node(self._pages.read_page(self._root_offset))
        self._height = height

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[int, bytes]]:
        """Yield every (key, record) in key order via the leaf chain."""
        node = self._root
        while not node.is_leaf:
            node = parse_node(self._pages.read_page(node.children[0]))
        while True:
            for key, value in zip(node.keys, node.values):
                if isinstance(value, bytes):
                    yield key, value
                else:
                    offset, length = value
                    yield key, self._pages.heap_read(offset, length)
            if node.next_leaf == NO_LEAF:
                return
            node = parse_node(self._pages.read_page(node.next_leaf))

    def keys(self) -> Iterator[int]:
        """Yield every key in order without reading heap records."""
        node = self._root
        while not node.is_leaf:
            node = parse_node(self._pages.read_page(node.children[0]))
        while True:
            yield from node.keys
            if node.next_leaf == NO_LEAF:
                return
            node = parse_node(self._pages.read_page(node.next_leaf))
