"""Synthetic workloads: Zipf collections and biased query streams.

Stand-ins for the paper's CACM / Legal / TIPSTER collections and their
seven query sets; see DESIGN.md section 2 for the substitution argument.
"""

from .collection import PROFILES, CollectionProfile, SyntheticCollection
from .informetrics import (
    InformetricProfile,
    fit_heaps,
    fit_zipf,
    partition_report,
    profile_collection,
    suggest_small_threshold,
    vocabulary_growth,
)
from .queries import (
    QueryProfile,
    QuerySet,
    generate_query_set,
    relevance_from_postings,
)
from .traffic import (
    TimedRequest,
    TrafficProfile,
    open_loop_requests,
)
from .vocab import term_rank, term_string, term_strings
from .zipf import ZipfSampler, rank_frequency_constant, zipf_mandelbrot_weights

__all__ = [
    "CollectionProfile",
    "InformetricProfile",
    "PROFILES",
    "QueryProfile",
    "QuerySet",
    "SyntheticCollection",
    "TimedRequest",
    "TrafficProfile",
    "ZipfSampler",
    "fit_heaps",
    "fit_zipf",
    "generate_query_set",
    "open_loop_requests",
    "partition_report",
    "profile_collection",
    "suggest_small_threshold",
    "vocabulary_growth",
    "rank_frequency_constant",
    "relevance_from_postings",
    "term_rank",
    "term_string",
    "term_strings",
    "zipf_mandelbrot_weights",
]
