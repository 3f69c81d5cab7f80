"""The integrated system: the paper's contribution, assembled.

Pool partitioning thresholds, Table 2 buffer-sizing heuristics, system
materialization (disk -> FS -> store -> inverted file -> engine), and
cold-start measurement of the paper's metrics.
"""

from .config import (
    CONFIG_NAMES,
    SystemConfig,
    config_by_name,
    table2_buffer_sizes,
)
from .experiment import (
    ExperimentGrid,
    QUERY_SET_PROFILES,
    Workload,
    build_systems,
    load_workload,
)
from .metrics import RunMetrics, cold_start, improvement, measure_run
from .prepared import (
    IRSystem,
    PreparedCollection,
    materialize,
    prepare_collection,
)
from .stats import (
    latency_summary,
    max_over_mean,
    median_of,
    percentile,
    relative_spread,
)
from .validate import (
    ValidationIssue,
    ValidationReport,
    check_index,
    check_store,
    check_system,
)

__all__ = [
    "CONFIG_NAMES",
    "ExperimentGrid",
    "IRSystem",
    "PreparedCollection",
    "QUERY_SET_PROFILES",
    "RunMetrics",
    "ValidationIssue",
    "ValidationReport",
    "SystemConfig",
    "Workload",
    "build_systems",
    "check_index",
    "check_store",
    "check_system",
    "cold_start",
    "config_by_name",
    "improvement",
    "latency_summary",
    "load_workload",
    "materialize",
    "max_over_mean",
    "measure_run",
    "median_of",
    "percentile",
    "prepare_collection",
    "relative_spread",
    "table2_buffer_sizes",
]
