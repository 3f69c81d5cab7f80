"""EpochManager unit semantics: publication, history, validation."""

import pytest

from repro.errors import IndexError_
from repro.live import EpochManager


def test_epoch_zero_is_the_base_corpus():
    manager = EpochManager.for_corpus([1, 2, 3])
    assert manager.epoch == 0
    assert manager.pin() == 0
    assert manager.live_docs() == frozenset({1, 2, 3})
    assert manager.live_docs(0) == frozenset({1, 2, 3})


def test_publish_advances_and_snapshots():
    manager = EpochManager.for_corpus([1, 2, 3])
    record = manager.publish(added=[4, 5], deleted=[1])
    assert record.epoch == 1 == manager.epoch
    assert record.live_docs == frozenset({2, 3, 4, 5})
    assert record.added == (4, 5) and record.deleted == (1,)
    # Epoch 0's snapshot is immutable history, not a live alias.
    assert manager.live_docs(0) == frozenset({1, 2, 3})
    manager.publish(added=[6])
    assert manager.live_docs(1) == frozenset({2, 3, 4, 5})
    assert manager.live_docs() == frozenset({2, 3, 4, 5, 6})


def test_publish_validates_against_the_live_set():
    manager = EpochManager.for_corpus([1, 2])
    with pytest.raises(IndexError_):
        manager.publish(added=[2])       # already live
    with pytest.raises(IndexError_):
        manager.publish(deleted=[9])     # never existed
    # A failed publish must not advance anything.
    assert manager.epoch == 0
    assert manager.live_docs() == frozenset({1, 2})


def test_unpublished_epoch_is_an_error():
    manager = EpochManager.for_corpus([1])
    with pytest.raises(IndexError_):
        manager.record(3)
    with pytest.raises(IndexError_):
        manager.live_docs(1)


def test_shard_epochs_count_only_touched_shards():
    # Each record names the shards its publication touched; the manager
    # keeps no shard count, so any shard id a topology has is accepted.
    manager = EpochManager.for_corpus([1, 2])
    assert manager.record(0).shards_touched == ()
    manager.publish(added=[3], shards_touched=[1])
    manager.publish(added=[4], shards_touched=[1, 0, 1])
    manager.publish(added=[5], shards_touched=[3])
    assert [manager.record(e).shards_touched for e in (1, 2, 3)] == [
        (1,), (0, 1), (3,)
    ]
    assert manager.epoch == 3
