"""The counter protocol every ``*Stats`` ledger shares (``repro.counters``)."""

from dataclasses import dataclass, fields

import pytest

import repro.faults
import repro.mneme
import repro.serve
import repro.simdisk
from repro.counters import Counters

LEDGERS = [
    repro.simdisk.DiskStats,
    repro.simdisk.CacheStats,
    repro.simdisk.FileStats,
    repro.simdisk.TimeBreakdown,
    repro.mneme.BufferStats,
    repro.mneme.ResilienceStats,
    repro.faults.FaultStats,
    repro.serve.CacheStats,
    repro.serve.TermCacheStats,
]


def _extended(cls):
    """``cls`` plus one new counter, declared and nothing else."""
    return dataclass(type(
        f"Extended{cls.__name__}", (cls,),
        {"__annotations__": {"extra": int}, "extra": 0},
    ))


CASES = LEDGERS + [_extended(cls) for cls in LEDGERS]
IDS = [f"{cls.__module__.split('.')[1]}.{cls.__name__}" for cls in CASES]


def _filled(cls, seed, fraction=0.25):
    """A ledger whose every field holds a distinct value.

    Float fields get ``fraction`` on top: a dyadic one keeps sums exact,
    a decimal one makes the float summation order observable.
    """
    values = []
    for i, spec in enumerate(fields(cls)):
        value = seed * 100 + i + 1
        values.append(value + fraction if isinstance(spec.default, float) else value)
    return cls(*values)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_counter_ledger_is_covered():
    listed = set(LEDGERS)
    for sub in _subclasses(Counters):
        assert sub in listed or any(issubclass(sub, base) for base in listed), sub


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_copy_is_independent(cls):
    original = _filled(cls, 1)
    duplicate = original.copy()
    assert type(duplicate) is cls
    assert duplicate == original and duplicate is not original
    first = fields(cls)[0].name
    setattr(duplicate, first, getattr(duplicate, first) + 7)
    assert getattr(original, first) == getattr(_filled(cls, 1), first)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_sum_then_difference_round_trips(cls):
    a, b = _filled(cls, 1), _filled(cls, 2)
    total = a + b
    assert type(total) is cls
    assert total - b == a
    assert (a, b) == (_filled(cls, 1), _filled(cls, 2))


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_in_place_add_keeps_identity(cls):
    a, b = _filled(cls, 1), _filled(cls, 2)
    alias = a
    a += b
    assert a is alias
    assert a == _filled(cls, 1) + b


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_sum_is_the_left_fold(cls):
    ledgers = [_filled(cls, seed, fraction=0.1 * seed) for seed in (1, 2, 3)]
    expected = {}
    for spec in fields(cls):
        total = spec.default
        for ledger in ledgers:
            total = total + getattr(ledger, spec.name)
        expected[spec.name] = total
    folded = sum(ledgers, cls())
    assert type(folded) is cls
    assert {spec.name: getattr(folded, spec.name) for spec in fields(cls)} == expected


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_as_dict_is_the_fields_in_declaration_order(cls):
    ledger = _filled(cls, 1)
    row = ledger.as_dict()
    names = [spec.name for spec in fields(cls)]
    # The result cache adds its derived hit rate; nothing else does.
    assert [key for key in row if key != "hit_rate"] == names
    assert all(row[name] == getattr(ledger, name) for name in names)


def test_result_cache_row_keeps_its_committed_key_order():
    stats = repro.serve.CacheStats(lookups=4, hits=1, misses=3)
    assert list(stats.as_dict().items()) == [
        ("lookups", 4), ("hits", 1), ("misses", 3), ("hit_rate", 0.25),
        ("insertions", 0), ("evictions", 0), ("rejected_degraded", 0),
        ("invalidations", 0),
    ]
