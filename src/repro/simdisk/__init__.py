"""Simulated storage substrate: disk, OS buffer cache, files, and clock.

This subpackage stands in for the paper's DECstation 5000/240 + ULTRIX +
SCSI-disk platform.  See DESIGN.md section 2 for the substitution argument:
the paper's results are counting effects (disk block inputs, file-access
system calls, bytes copied), so a deterministic counter-based simulator
preserves every ordering and crossover the paper reports.
"""

from .cache import BlockCache, CacheStats
from .disk import DiskStats, SimDisk
from .filesystem import FileStats, SimFile, SimFileSystem
from .image import load_image, save_image
from .timing import BLOCK_SIZE, CostModel, SimClock, TimeBreakdown

__all__ = [
    "BLOCK_SIZE",
    "BlockCache",
    "CacheStats",
    "CostModel",
    "DiskStats",
    "FileStats",
    "load_image",
    "save_image",
    "SimClock",
    "SimDisk",
    "SimFile",
    "SimFileSystem",
    "TimeBreakdown",
]
