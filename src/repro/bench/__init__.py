"""Benchmark drivers: regenerate every table and figure of the paper.

``benchmarks/bench_*.py`` are thin pytest-benchmark wrappers over this
package; see DESIGN.md section 4 for the experiment index.  The nine
regression gates (``python -m repro.bench <gate>``) share the one driver
in :mod:`repro.bench.gate`.
"""

from .ablations import (
    UpdateCosts,
    reservation_ablation,
    segment_size_ablation,
    split_large_buffer_ablation,
    update_extension_experiment,
)
from .figures import (
    FIGURE3_MULTIPLIERS,
    figure1_size_distribution,
    figure2_term_use,
    figure3_buffer_sweep,
)
from .paper import write_full_report
from .report import emit, render_plot, render_table
from .runner import DISPLAY_NAMES, PROFILE_ORDER, SET_NUMBERS, BenchRunner
from .tables import (
    table1_collections,
    table2_buffers,
    table3_wall_clock,
    table4_system_io,
    table5_io_stats,
    table6_hit_rates,
)

__all__ = [
    "BenchRunner",
    "DISPLAY_NAMES",
    "FIGURE3_MULTIPLIERS",
    "PROFILE_ORDER",
    "SET_NUMBERS",
    "UpdateCosts",
    "emit",
    "figure1_size_distribution",
    "figure2_term_use",
    "figure3_buffer_sweep",
    "render_plot",
    "render_table",
    "reservation_ablation",
    "segment_size_ablation",
    "split_large_buffer_ablation",
    "table1_collections",
    "table2_buffers",
    "table3_wall_clock",
    "table4_system_io",
    "table5_io_stats",
    "table6_hit_rates",
    "update_extension_experiment",
    "write_full_report",
]
