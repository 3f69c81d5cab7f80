"""Counter ledgers: copy, difference, sum and serialize from the fields.

Every layer keeps its accounting in a small dataclass of numbers —
:class:`~repro.simdisk.disk.DiskStats`,
:class:`~repro.mneme.buffers.BufferStats`,
:class:`~repro.serve.termcache.TermCacheStats` and the rest.  Harnesses
measure the paper's way (snapshot, run, difference), fleets fold
per-machine ledgers into one, and gates serialize them.
:class:`Counters` supplies that arithmetic once, from
:func:`dataclasses.fields`, so a ledger declares its fields and nothing
else: adding a counter is one line.

This module imports nothing from the package, so the lowest layer
(``repro.simdisk``) can build on it.
"""

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, Tuple, TypeVar

C = TypeVar("C", bound="Counters")


@lru_cache(maxsize=None)
def _names(cls: type) -> Tuple[str, ...]:
    return tuple(spec.name for spec in fields(cls))


@dataclass
class Counters:
    """Base for ``@dataclass`` ledgers whose fields are all numbers.

    Every operation works field by field in declaration order:
    ``a - b`` and ``a + b`` build new ledgers, ``a += b`` adds into
    ``a`` in place, and ``sum(ledgers, Cls())`` folds left to right, so
    float fields accumulate exactly as a hand-written loop would.
    Derived quantities (hit rates, byte totals) stay properties; a
    ledger that serializes one overrides :meth:`as_dict`.
    """

    def copy(self: C) -> C:
        return type(self)(*[getattr(self, name) for name in _names(type(self))])

    def __sub__(self: C, other: C) -> C:
        return type(self)(*[
            getattr(self, name) - getattr(other, name)
            for name in _names(type(self))
        ])

    def __add__(self: C, other: C) -> C:
        return type(self)(*[
            getattr(self, name) + getattr(other, name)
            for name in _names(type(self))
        ])

    def __iadd__(self: C, other: C) -> C:
        for name in _names(type(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, object]:
        """The fields as a dict, in declaration order."""
        return {name: getattr(self, name) for name in _names(type(self))}
