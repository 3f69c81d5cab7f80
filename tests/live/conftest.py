"""Fixtures: one tiny collection and its live-corpus document source.

The live-ingest tests compare every query against a stop-the-world
rebuild of the exact epoch corpus, so rebuild cost dominates; the
collection is kept small enough that a from-scratch build is cheap and
the interleaving property tests can rebuild dozens of times.
"""

import pytest

from repro.core import config_by_name, prepare_collection
from repro.live import LiveCorpus
from repro.synth import (
    CollectionProfile,
    QueryProfile,
    SyntheticCollection,
    generate_query_set,
)

TINY = CollectionProfile(
    name="tiny-live", models="test", documents=120, mean_doc_length=40,
    doc_length_sigma=0.5, vocab_size=900, seed=73,
)


@pytest.fixture(scope="session")
def collection():
    return SyntheticCollection(TINY)


@pytest.fixture(scope="session")
def corpus(collection):
    return LiveCorpus(collection)


@pytest.fixture(scope="session")
def prepared(collection):
    return prepare_collection(collection)


@pytest.fixture(scope="session")
def config():
    # WAL on: every published epoch must seal an epoch-commit marker.
    return config_by_name("mneme-linked", use_wal=True)


@pytest.fixture(scope="session")
def queries(collection):
    query_set = generate_query_set(
        collection,
        QueryProfile(name="live-natural", style="natural", n_queries=6,
                     mean_terms=4, seed=211),
    )
    return query_set.queries


@pytest.fixture(scope="session")
def daat_queries(collection):
    query_set = generate_query_set(
        collection,
        QueryProfile(name="live-weighted", style="weighted", n_queries=4,
                     mean_terms=4, seed=223),
    )
    from repro.inquery.daat import daat_queries as flat_subset

    return flat_subset(query_set.queries)[:3]
