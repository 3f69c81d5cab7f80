"""repro — reproduction of Brown, Callan, Moss & Croft (EDBT 1994):
*Supporting Full-Text Information Retrieval with a Persistent Object
Store*.

Subpackages
-----------
``repro.simdisk``
    Simulated disk, OS buffer cache, files, and the cost-model clock.
``repro.btree``
    The custom B-tree keyed file (the paper's baseline).
``repro.mneme``
    The Mneme persistent object store: pools, segments, buffers,
    linked objects, recovery.
``repro.inquery``
    The INQUERY-style retrieval engine: dictionary, compressed inverted
    lists, indexer, query language, inference network, IR metrics.
``repro.synth``
    Synthetic Zipf collections and biased query sets.
``repro.core``
    The integrated system: configurations, Table 2 buffer sizing,
    materialization, and cold-start measurement.
``repro.bench``
    Table and figure regeneration (used by ``benchmarks/``).

Quickstart
----------
>>> from repro import quick_system
>>> system, engine = quick_system("cacm-s", "mneme-cache")
>>> engine.run_query("#sum( wb wc wd )").ranking  # doctest: +SKIP
"""

from .core import (
    CONFIG_NAMES,
    RunMetrics,
    build_systems,
    config_by_name,
    load_workload,
    materialize,
    measure_run,
    prepare_collection,
    table2_buffer_sizes,
)
from .errors import ReproError
from .inquery import IndexBuilder, RetrievalEngine

__version__ = "1.0.0"


def quick_system(profile_name: str = "cacm-s", config_name: str = "mneme-cache"):
    """Build a ready-to-query system in one call.

    Returns
    -------
    (system, engine):
        The materialized :class:`~repro.core.IRSystem` and a
        :class:`~repro.inquery.RetrievalEngine` bound to it.
    """
    workload = load_workload(profile_name)
    system = materialize(workload.prepared, config_by_name(config_name))
    return system, RetrievalEngine(system.index)


__all__ = [
    "CONFIG_NAMES",
    "IndexBuilder",
    "ReproError",
    "RetrievalEngine",
    "RunMetrics",
    "build_systems",
    "config_by_name",
    "load_workload",
    "materialize",
    "measure_run",
    "prepare_collection",
    "quick_system",
    "table2_buffer_sizes",
    "__version__",
]
