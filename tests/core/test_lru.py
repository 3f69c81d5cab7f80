"""The weighted LRU primitive against a list model.

The model is a plain list of ``(key, weight)`` pairs, least recently
used first.  Every operation is applied to both; after each step the
primitive's keys, held weight and returned victims must equal the
model's, and the held weight must never exceed the budget.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lru import WeightedLRU

BUDGET = 20
MAX_WEIGHT = 12

keys = st.integers(min_value=0, max_value=6)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, st.integers(min_value=1, max_value=16)),
        st.tuples(st.just("get"), keys, st.none()),
        st.tuples(st.just("pop"), keys, st.none()),
    ),
    max_size=40,
)


class _Model:
    def __init__(self, budget, max_weight):
        self.budget, self.max_weight = budget, max_weight
        self.entries = []  # [(key, weight)], LRU first

    def _find(self, key):
        return next((i for i, (k, _w) in enumerate(self.entries) if k == key), None)

    def get(self, key):
        at = self._find(key)
        if at is not None:
            self.entries.append(self.entries.pop(at))
        return at is not None

    def put(self, key, weight):
        if weight > self.max_weight:
            return None
        at = self._find(key)
        if at is not None:
            self.entries.pop(at)
        self.entries.append((key, weight))
        victims = []
        while sum(w for _k, w in self.entries) > self.budget:
            victims.append(self.entries.pop(0)[0])
        return victims

    def pop(self, key):
        at = self._find(key)
        if at is not None:
            self.entries.pop(at)
        return at is not None


@given(ops=ops)
@settings(max_examples=200, deadline=None)
def test_matches_the_list_model(ops):
    lru = WeightedLRU(BUDGET, MAX_WEIGHT)
    model = _Model(BUDGET, MAX_WEIGHT)
    for op, key, weight in ops:
        if op == "put":
            expected = model.put(key, weight)
            evicted = lru.put(key, f"v{key}/{weight}", weight)
            if expected is None:
                assert evicted is None  # oversize: refused, nothing changed
            else:
                # Victims come out least recently used first, with values.
                assert [k for k, _v in evicted] == expected
                assert all(v.startswith(f"v{k}/") for k, v in evicted)
        elif op == "get":
            found = model.get(key)
            value = lru.get(key)
            assert (value is not None) == found
        elif key in lru:
            assert model.pop(key)
            assert lru.pop(key).startswith(f"v{key}/")
        else:
            assert not model.pop(key)
        assert lru.keys() == [k for k, _w in model.entries]
        assert lru.held == sum(w for _k, w in model.entries)
        assert lru.held <= BUDGET
        assert len(lru) == len(model.entries)


def test_reput_replaces_the_weight():
    lru = WeightedLRU(10)
    lru.put("a", 1, 6)
    lru.put("b", 2, 3)
    assert lru.put("a", 3, 2) == []
    assert lru.held == 5
    assert lru.keys() == ["b", "a"]
    assert lru.values() == [2, 3]


def test_refused_put_keeps_the_existing_entry():
    lru = WeightedLRU(10, max_weight=4)
    lru.put("a", 1, 4)
    assert lru.put("a", 2, 5) is None
    assert lru.get("a") == 1
    assert lru.held == 4


def test_max_weight_is_capped_by_the_budget():
    lru = WeightedLRU(8, max_weight=100)
    assert lru.max_weight == 8
    assert lru.put("big", 1, 9) is None
    assert lru.put("fits", 1, 8) == []


def test_pop_missing_key_raises_and_clear_empties():
    lru = WeightedLRU(8)
    with pytest.raises(KeyError):
        lru.pop("x")
    lru.put("a", 1, 3)
    lru.clear()
    assert (len(lru), lru.held, lru.get("a")) == (0, 0, None)
