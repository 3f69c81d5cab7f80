"""System configurations and the paper's buffer-sizing heuristics.

Three named configurations reproduce the paper's comparison:

* ``btree``        — the custom B-tree keyed file;
* ``mneme-nocache`` — Mneme with no inverted-list record caching across
  accesses (NullBuffer on every pool);
* ``mneme-cache``  — Mneme with one LRU buffer per pool, sized by the
  Table 2 heuristics.

Table 2's rules, applied verbatim (scaled only through the data):

* large buffer  = 3 x the size of the largest inverted list;
* medium buffer = 9% of the large buffer ("the number of accesses to
  medium objects equaled roughly 9% of the number of accesses to large
  objects"), with a floor of 3 medium segments (the CACM exception);
* small buffer  = 3 small segments ("small object access was
  insignificant").
"""

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..inquery import BufferSizes
from ..mneme import MEDIUM_SEGMENT_BYTES, SMALL_SEGMENT_BYTES
from ..simdisk import CostModel

#: Configuration names, in the order the paper's tables list them.
CONFIG_NAMES = ("btree", "mneme-nocache", "mneme-cache")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to materialize one system build."""

    name: str
    backend: str                 #: "btree" or "mneme"
    cached: bool = False         #: attach Table 2 LRU buffers?
    fs_cache_blocks: int = 32    #: OS buffer cache, in 8 KB blocks (256 KB —
    #: scaled from the paper's 64 MB machine as its gigabyte files are
    #: scaled down to megabytes)
    medium_segment_bytes: int = MEDIUM_SEGMENT_BYTES
    medium_max_bytes: int = 4096
    chunk_bytes: int = 16384     #: chunk size of the mneme-linked backend
    readahead_blocks: int = 0    #: FS sequential read-ahead (0 = off)
    use_reservation: bool = True
    #: Attach a redo log (write-ahead log) to the Mneme file.  Enables
    #: crash recovery and checksum read-repair; costs extra writes
    #: during the (untimed) build.  Mneme backends only.
    use_wal: bool = False
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        if self.backend not in ("btree", "mneme", "mneme-linked"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "btree" and self.cached:
            raise ConfigError("the B-tree version has no record cache")
        if self.backend == "btree" and self.use_wal:
            raise ConfigError("the B-tree version has no redo log")


def config_by_name(name: str, **overrides) -> SystemConfig:
    """The paper's three configurations, plus the linked-record extension.

    ``mneme-linked`` stores large records as linked chunk chains
    (cached buffers attached), enabling the document-at-a-time engine.
    """
    if name == "btree":
        return SystemConfig(name=name, backend="btree", **overrides)
    if name == "mneme-nocache":
        return SystemConfig(name=name, backend="mneme", cached=False, **overrides)
    if name == "mneme-cache":
        return SystemConfig(name=name, backend="mneme", cached=True, **overrides)
    if name == "mneme-linked":
        return SystemConfig(name=name, backend="mneme-linked", cached=True, **overrides)
    raise ConfigError(f"unknown configuration {name!r}")


def table2_buffer_sizes(
    largest_record: int,
    medium_segment_bytes: int = MEDIUM_SEGMENT_BYTES,
    small_segment_bytes: int = SMALL_SEGMENT_BYTES,
) -> BufferSizes:
    """Apply the paper's buffer-sizing heuristics (Table 2).

    Parameters
    ----------
    largest_record:
        Size in bytes of the collection's largest inverted list.
    """
    if largest_record < 1:
        raise ConfigError("collection has no records to size buffers from")
    large = 3 * largest_record
    medium = max(int(0.09 * large), 3 * medium_segment_bytes)
    small = 3 * small_segment_bytes
    return BufferSizes(small=small, medium=medium, large=large)
