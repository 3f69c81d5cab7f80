"""Shared state for the benchmark suite.

Workloads, materialized systems, and measured grids are cached per
process so each ``benchmarks/bench_*.py`` file can ask for what it needs
without re-running the (deterministic) heavy work another file already
did.
"""

from typing import Dict, Sequence

from ..core import (
    CONFIG_NAMES,
    ExperimentGrid,
    IRSystem,
    Workload,
    build_systems,
    load_workload,
    measure_run,
)

#: The paper's collection order, with display names for table rows.
PROFILE_ORDER = ("cacm-s", "legal-s", "tipster1-s", "tipster-s")
DISPLAY_NAMES = {
    "cacm-s": "CACM",
    "legal-s": "Legal",
    "tipster1-s": "TIPSTER 1",
    "tipster-s": "TIPSTER",
}
#: Query set display numbers within their collection (as in the paper).
SET_NUMBERS = {
    "cacm-1": "1", "cacm-2": "2", "cacm-3": "3",
    "legal-1": "1", "legal-2": "2",
    "tipster-1": "1",
}


class BenchRunner:
    """Caches workloads, systems, and grids across benchmark files."""

    def __init__(self):
        self._systems: Dict[str, Dict[str, IRSystem]] = {}
        self._grids: Dict[str, ExperimentGrid] = {}

    def workload(self, profile: str) -> Workload:
        return load_workload(profile)

    def systems(self, profile: str) -> Dict[str, IRSystem]:
        if profile not in self._systems:
            self._systems[profile] = build_systems(self.workload(profile).prepared)
        return self._systems[profile]

    def grid(self, profile: str, config_names: Sequence[str] = CONFIG_NAMES) -> ExperimentGrid:
        """Measured runs for every (query set, configuration) pair."""
        if profile not in self._grids:
            workload = self.workload(profile)
            systems = self.systems(profile)
            grid = ExperimentGrid(collection=profile)
            for query_set in workload.query_sets:
                grid.cells[query_set.name] = {}
                for name in config_names:
                    grid.cells[query_set.name][name] = measure_run(
                        systems[name], query_set.queries, query_set.name
                    )
            self._grids[profile] = grid
        return self._grids[profile]
