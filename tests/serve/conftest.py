"""Fixtures: one small collection, query pools, single-disk references.

The expensive pieces (collection, preparation, query pools, reference
rankings) are session-scoped; backends are materialized per test (or
memoized inside a test module) because :class:`repro.serve.QueryService`
cold-starts whatever backend it is handed.
"""

import pytest

from repro.core import config_by_name, materialize, prepare_collection
from repro.core.metrics import cold_start
from repro.inquery import DocumentAtATimeEngine, RetrievalEngine
from repro.inquery.daat import daat_queries
from repro.synth import (
    CollectionProfile,
    QueryProfile,
    SyntheticCollection,
    generate_query_set,
)

TINY = CollectionProfile(
    name="tiny-serve", models="test", documents=240, mean_doc_length=50,
    doc_length_sigma=0.5, vocab_size=2500, seed=43,
)

QUERY_STYLES = [
    QueryProfile(name="serve-natural", style="natural", n_queries=8,
                 mean_terms=4, seed=211),
    QueryProfile(name="serve-boolean", style="boolean", n_queries=6,
                 mean_terms=4, seed=223),
    QueryProfile(name="serve-weighted", style="weighted", n_queries=6,
                 mean_terms=4, seed=227),
]


@pytest.fixture(scope="session")
def collection():
    return SyntheticCollection(TINY)


@pytest.fixture(scope="session")
def prepared(collection):
    return prepare_collection(collection)


@pytest.fixture(scope="session")
def config():
    return config_by_name("mneme-cache")


@pytest.fixture(scope="session")
def pool(collection):
    queries = []
    for profile in QUERY_STYLES:
        queries.extend(generate_query_set(collection, profile).queries)
    return queries


@pytest.fixture(scope="session")
def daat_pool(pool):
    """The flat #sum/#wsum subset the document-at-a-time engine accepts."""
    flat = daat_queries(pool)
    assert flat, "query pools must include flat queries for DAAT coverage"
    return flat


def reference_rankings(prepared, config, texts, engine="taat"):
    """Cold single-disk rankings, the bit-identity target for serving."""
    system = materialize(prepared, config)
    cold_start(system)
    engine_cls = DocumentAtATimeEngine if engine == "daat" else RetrievalEngine
    runner = engine_cls(
        system.index,
        top_k=50,
        use_reservation=config.use_reservation,
    )
    return {text: runner.run_query(text).ranking for text in dict.fromkeys(texts)}


@pytest.fixture(scope="session")
def taat_reference(prepared, config, pool):
    return reference_rankings(prepared, config, pool, engine="taat")


@pytest.fixture(scope="session")
def daat_reference(prepared, config, daat_pool):
    return reference_rankings(prepared, config, daat_pool, engine="daat")
