"""Documents and the per-document statistics table."""

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import IndexError_
from ..simdisk import SimFile


@dataclass(frozen=True)
class Document:
    """One document handed to the indexer.

    ``tokens`` may be supplied pre-tokenized (synthetic workloads build
    token streams directly); otherwise the indexer tokenizes ``text``.
    """

    doc_id: int
    name: str = ""
    text: str = ""
    tokens: Sequence[str] = ()

    def term_stream(self, tokenizer) -> List[str]:
        """The token sequence to index."""
        if self.tokens:
            return list(self.tokens)
        return tokenizer(self.text)


@dataclass
class DocTable:
    """Document lengths and names; needed for belief normalization.

    ``lengths`` changes only through :meth:`add` and :meth:`remove`,
    which also maintain what is derived from it: the running
    ``total_length``, the fast path's cached doc-id space and, after the
    first :meth:`save`, the saved image (one packed row per document),
    so a later save packs only the rows added since.
    """

    lengths: Dict[int, int] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)
    #: Sum of ``lengths``' values.
    total_length: int = field(init=False, default=0)
    #: Accumulator slots and per-slot lengths built by
    #: :func:`repro.fastpath.beliefs.doc_id_space`; dropped by every
    #: mutation (never by ``len()``: one ingest batch adds and removes).
    id_space: Optional[object] = field(
        init=False, default=None, repr=False, compare=False
    )
    #: Doc id -> saved row (``None`` until the first :meth:`save`).
    _rows: Optional[Dict[int, bytes]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.total_length = sum(self.lengths.values())

    def add(self, doc_id: int, length: int, name: str = "") -> None:
        if doc_id in self.lengths:
            raise IndexError_(f"duplicate document id {doc_id}")
        self.lengths[doc_id] = length
        self.total_length += length
        self.id_space = None
        if name:
            self.names[doc_id] = name
        if self._rows is not None:
            self._rows[doc_id] = self._pack_row(doc_id)

    def __len__(self) -> int:
        return len(self.lengths)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self.lengths

    def doc_ids(self) -> Iterator[int]:
        return iter(self.lengths)

    @property
    def average_length(self) -> float:
        return self.total_length / len(self.lengths) if self.lengths else 0.0

    def length_of(self, doc_id: int) -> int:
        try:
            return self.lengths[doc_id]
        except KeyError:
            raise IndexError_(f"unknown document id {doc_id}") from None

    def remove(self, doc_id: int) -> None:
        self.total_length -= self.lengths.pop(doc_id, 0)
        self.id_space = None
        self.names.pop(doc_id, None)
        if self._rows is not None:
            self._rows.pop(doc_id, None)

    # -- persistence -----------------------------------------------------------

    _REC = struct.Struct("<IIH")  # doc id, length, name length

    def save(self, file: SimFile) -> None:
        """Write every row in doc-id order (packing only new rows)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = {d: self._pack_row(d) for d in self.lengths}
        parts = [struct.pack("<I", len(rows))]
        parts.extend(map(rows.__getitem__, sorted(rows)))
        file.truncate(0)
        file.write(0, b"".join(parts))

    def _pack_row(self, doc_id: int) -> bytes:
        raw = self.names.get(doc_id, "").encode("utf-8")
        return self._REC.pack(doc_id, self.lengths[doc_id], len(raw)) + raw

    @classmethod
    def load(cls, file: SimFile) -> "DocTable":
        raw = file.read(0, file.size)
        (count,) = struct.unpack_from("<I", raw, 0)
        table = cls()
        pos = 4
        for _ in range(count):
            doc_id, length, name_len = cls._REC.unpack_from(raw, pos)
            pos += cls._REC.size
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            table.add(doc_id, length, name)
        return table
