"""Compact auxiliary tables, permanently cached after first access.

Mneme locates objects "based on their logical segments using compact
multi-level hash tables.  This lookup mechanism requires slightly more
computation, but the reduced table size allows the auxiliary tables to
remain permanently cached after their first access."

Our identifiers are dense (pools allocate logical segments and objects
sequentially), so the compact equivalent of those hash tables is a paged
persistent array: a one-level page directory held in memory over
fixed-size entry pages on disk.  A page is read from its file the first
time any of its entries is touched — that read is the "slightly more than
1 file access per lookup" visible in Table 5's ``A`` column — and is then
cached for the life of the store.

Each table persists one kind of fact, per pool:

* ``segs``   — physical segment ordinal → (file offset, byte length)
* ``omap``   — object ordinal → physical segment ordinal
* ``lsegs``  — pool-local logical segment ordinal → global logical segment
"""

import struct
from typing import Dict, List, Sequence, Tuple

from ..errors import MnemeError
from ..simdisk import SimFile

_HEADER = struct.Struct("<4sHHQ")  # magic, entry size, entries/page, count
_MAGIC = b"MAUX"

#: Target byte size of one table page.
PAGE_BYTES = 4096

#: Sentinel stored in tombstoned entries.
TOMBSTONE = 0xFFFFFFFF


class PagedTable:
    """A persistent array of fixed-format tuples with page-grain caching.

    Parameters
    ----------
    file:
        Backing simulated file; empty means a new table.
    entry_format:
        :mod:`struct` format of one entry, e.g. ``"<QI"`` for the segment
        table's (offset, length) pairs.
    """

    def __init__(self, file: SimFile, entry_format: str):
        self._file = file
        self._entry = struct.Struct(entry_format)
        self._per_page = max(1, PAGE_BYTES // self._entry.size)
        self._page_bytes = self._per_page * self._entry.size
        self._count = 0
        self._pages: Dict[int, List[Tuple]] = {}   # permanently cached pages
        self._dirty: set = set()
        if file.size == 0:
            self._write_header()
        else:
            self._read_header()

    def _write_header(self) -> None:
        self._file.write(
            0, _HEADER.pack(_MAGIC, self._entry.size, self._per_page, self._count)
        )

    def _read_header(self) -> None:
        magic, entry_size, per_page, count = _HEADER.unpack(
            self._file.read(0, _HEADER.size)
        )
        if magic != _MAGIC:
            raise MnemeError(f"{self._file.name!r} is not an auxiliary table")
        if entry_size != self._entry.size or per_page != self._per_page:
            raise MnemeError(
                f"table {self._file.name!r} has entry size {entry_size}, "
                f"expected {self._entry.size}"
            )
        self._count = count

    def __len__(self) -> int:
        return self._count

    @property
    def cached_pages(self) -> int:
        """Pages resident in the permanent cache (for footprint stats)."""
        return len(self._pages)

    @property
    def file_size(self) -> int:
        return self._file.size

    def append(self, *values) -> int:
        """Add one entry, returning its index."""
        index = self._count
        page_no, offset = divmod(index, self._per_page)
        page = self._load_page(page_no, allow_new=True)
        if offset == len(page):
            page.append(tuple(values))
        else:
            page[offset] = tuple(values)
        self._count += 1
        self._dirty.add(page_no)
        return index

    def extend(self, rows: Sequence[Tuple]) -> None:
        """Append many entries, a page at a time (same pages as ``append``)."""
        done = 0
        while done < len(rows):
            page_no, offset = divmod(self._count, self._per_page)
            page = self._load_page(page_no, allow_new=True)
            take = rows[done:done + self._per_page - offset]
            page[offset:offset + len(take)] = take
            self._count += len(take)
            self._dirty.add(page_no)
            done += len(take)

    def get(self, index: int) -> Tuple:
        """Fetch one entry; first touch of its page costs a file access."""
        self._check(index)
        page_no, offset = divmod(index, self._per_page)
        return self._load_page(page_no)[offset]

    def set(self, index: int, *values) -> None:
        """Overwrite one entry in place."""
        self._check(index)
        page_no, offset = divmod(index, self._per_page)
        self._load_page(page_no)[offset] = tuple(values)
        self._dirty.add(page_no)

    def __iter__(self):
        for index in range(self._count):
            yield self.get(index)

    def drop_cache(self) -> None:
        """Forget cached pages — simulates a fresh process opening the store.

        Raises
        ------
        MnemeError
            If unflushed changes would be lost.
        """
        if self._dirty:
            raise MnemeError(
                f"flush {self._file.name!r} before dropping its page cache"
            )
        self._pages.clear()

    def flush(self) -> None:
        """Write dirty pages and the header back to the file."""
        for page_no in sorted(self._dirty):
            page = self._pages[page_no]
            data = bytearray()
            for entry in page:
                data += self._entry.pack(*entry)
            self._file.write(_HEADER.size + page_no * self._page_bytes, bytes(data))
        self._dirty.clear()
        self._write_header()

    def _check(self, index: int) -> None:
        if not 0 <= index < self._count:
            raise IndexError(
                f"table index {index} out of range [0, {self._count}) "
                f"in {self._file.name!r}"
            )

    def _load_page(self, page_no: int, allow_new: bool = False) -> List[Tuple]:
        page = self._pages.get(page_no)
        if page is not None:
            return page
        start = _HEADER.size + page_no * self._page_bytes
        first_index = page_no * self._per_page
        stored = max(0, min(self._count - first_index, self._per_page))
        if stored > 0 and start < self._file.size:
            raw = self._file.read(start, stored * self._entry.size)
            page = list(self._entry.iter_unpack(raw))
        elif allow_new or stored == 0:
            page = []
        else:
            raise MnemeError(
                f"table page {page_no} of {self._file.name!r} missing on disk"
            )
        self._pages[page_no] = page
        return page
