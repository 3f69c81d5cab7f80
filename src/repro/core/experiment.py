"""Whole-experiment drivers: one collection, three systems, many sets.

This is the top of the reproduction stack: give it a collection profile
and query profiles, and it returns the grid of
:class:`~repro.core.metrics.RunMetrics` the benchmark tables are printed
from.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..synth import (
    PROFILES,
    QueryProfile,
    QuerySet,
    SyntheticCollection,
    generate_query_set,
)
from ..errors import ConfigError
from .config import CONFIG_NAMES, config_by_name
from .metrics import RunMetrics
from .prepared import IRSystem, PreparedCollection, materialize, prepare_collection


#: The paper's seven query sets, as (collection, query profile) pairs.
QUERY_SET_PROFILES: Dict[str, List[QueryProfile]] = {
    "cacm-s": [
        QueryProfile(name="cacm-1", style="boolean", n_queries=50,
                     mean_terms=5, reuse_rate=0.3, seed=201),
        QueryProfile(name="cacm-2", style="boolean", n_queries=50,
                     mean_terms=6, reuse_rate=0.45, seed=202),
        QueryProfile(name="cacm-3", style="phrase", n_queries=50,
                     mean_terms=8, reuse_rate=0.5, seed=203),
    ],
    "legal-s": [
        QueryProfile(name="legal-1", style="natural", n_queries=50,
                     mean_terms=6, reuse_rate=0.15, bias_alpha=1.4, seed=204),
        QueryProfile(name="legal-2", style="weighted", n_queries=50,
                     mean_terms=8, reuse_rate=0.25, bias_alpha=1.4, seed=205),
    ],
    "tipster1-s": [
        QueryProfile(name="tipster-1", style="natural", n_queries=50,
                     mean_terms=10, reuse_rate=0.3, bias_alpha=1.5, seed=206),
    ],
    "tipster-s": [
        QueryProfile(name="tipster-1", style="natural", n_queries=50,
                     mean_terms=10, reuse_rate=0.3, bias_alpha=1.5, seed=206),
    ],
}


@dataclass
class Workload:
    """A prepared collection and its generated query sets."""

    prepared: PreparedCollection
    query_sets: List[QuerySet]


_WORKLOAD_CACHE: Dict[str, Workload] = {}


def load_workload(profile_name: str, use_cache: bool = True) -> Workload:
    """Build (or fetch from the in-process cache) one named workload."""
    if use_cache and profile_name in _WORKLOAD_CACHE:
        return _WORKLOAD_CACHE[profile_name]
    profile = PROFILES.get(profile_name)
    if profile is None:
        raise ConfigError(f"unknown collection profile {profile_name!r}")
    collection = SyntheticCollection(profile)
    prepared = prepare_collection(collection)
    query_sets = [
        generate_query_set(collection, query_profile)
        for query_profile in QUERY_SET_PROFILES.get(profile_name, [])
    ]
    workload = Workload(prepared=prepared, query_sets=query_sets)
    if use_cache:
        _WORKLOAD_CACHE[profile_name] = workload
    return workload


def build_systems(
    prepared: PreparedCollection,
    config_names: Sequence[str] = CONFIG_NAMES,
    **overrides,
) -> Dict[str, IRSystem]:
    """Materialize the named configurations for one collection."""
    return {
        name: materialize(prepared, config_by_name(name, **overrides))
        for name in config_names
    }


@dataclass
class ExperimentGrid:
    """RunMetrics for every (query set, configuration) cell."""

    collection: str
    cells: Dict[str, Dict[str, RunMetrics]] = field(default_factory=dict)
    # cells[query_set_name][config_name]

    def metric(self, query_set: str, config: str) -> RunMetrics:
        return self.cells[query_set][config]
