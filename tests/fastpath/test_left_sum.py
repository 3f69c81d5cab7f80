"""Belief folds must not depend on the interpreter's builtin ``sum``.

Since CPython 3.12 ``sum`` over floats is compensated (Neumaier), while
the array kernels add left to right; a scalar fold through ``sum``
would then differ from the kernels' in the last bit of a mean.  Every
belief fold goes through :func:`~repro.inquery.network.left_sum`, so
swapping a compensated ``sum`` into the evaluating modules — what a
3.12 interpreter does to all of them — must leave the reference and fast
term-at-a-time engines and both document-at-a-time engines agreeing
bit for bit.
"""

import builtins
import math

import pytest

from repro.core import config_by_name, materialize, prepare_collection
from repro.fastpath import use_fastpath
from repro.inquery import DocumentAtATimeEngine, RetrievalEngine
from repro.inquery.network import left_sum
from repro.synth import CollectionProfile, SyntheticCollection
from repro.synth.vocab import term_string

TINY = CollectionProfile(
    name="tiny-left-sum", models="test", documents=150, mean_doc_length=40,
    doc_length_sigma=0.5, vocab_size=300, seed=59,
)
TERMS = [term_string(rank) for rank in range(8)]
QUERIES = [
    "#sum( " + " ".join(TERMS[:n]) + " )" for n in (3, 5, 8)
] + [
    "#wsum( " + " ".join(f"{w} {t}" for w, t in zip((3, 1, 2, 5, 1), TERMS)) + " )",
    "#wsum( " + " ".join(f"{w} {t}" for w, t in zip((0.3, 1.7, 2.1), TERMS[2:])) + " )",
]
MODULES = [
    "repro.inquery.network",
    "repro.inquery.daat",
    "repro.fastpath.beliefs",
    "repro.fastpath.network",
    "repro.fastpath.daat",
    "repro.fastpath.prune",
]


def compensated_sum(values, start=0):
    """Builtin ``sum`` as 3.12 behaves on floats: not a left fold."""
    values = list(values)
    if isinstance(start, int) and all(isinstance(v, int) for v in values):
        return builtins.sum(values, start)
    return math.fsum([start, *values])


def test_compensated_sum_is_not_a_left_fold():
    assert compensated_sum([0.1] * 10) != left_sum([0.1] * 10)


def test_engines_agree_under_a_compensated_sum(monkeypatch):
    import importlib

    for name in MODULES:
        monkeypatch.setattr(importlib.import_module(name), "sum", compensated_sum,
                            raising=False)
    index = materialize(
        prepare_collection(SyntheticCollection(TINY)), config_by_name("mneme-cache")
    ).index
    top_k = len(index.doctable)
    rankings = []
    for fast in (False, True):
        with use_fastpath(fast):
            for engine in (RetrievalEngine(index, top_k=top_k),
                           DocumentAtATimeEngine(index, top_k=top_k)):
                rankings.append([engine.run_query(q).ranking for q in QUERIES])
    assert all(rankings[0])
    assert all(ranking == rankings[0] for ranking in rankings), [
        sum(a != b for a, b in zip(ranking, rankings[0])) for ranking in rankings
    ]


@pytest.mark.parametrize("values", [[], [0.4], [0.1] * 10, [0.7, 1e-17, -0.3, 0.25]])
def test_left_sum_is_sequential_addition(values):
    total = 0.0
    for value in values:
        total = total + value
    assert left_sum(values) == total
    assert left_sum(iter(values)) == total
