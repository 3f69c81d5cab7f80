"""Partitioner and per-shard preparation invariants.

The load-bearing properties: the shards disjointly cover the document
set, summing shard-local statistics reconstructs the global statistics
exactly, and the N=1 degenerate partition is byte-for-byte the
unsharded build.
"""

import pytest

from repro.core import materialize
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.inquery import decode_record, encode_record
from repro.shard import (
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
    materialize_sharded,
    partition_prepared,
)


@pytest.mark.parametrize("scheme", ["hash", "range"])
@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_shards_disjointly_cover_documents(prepared, scheme, n_shards):
    partitioner = make_partitioner(scheme, n_shards, len(prepared.doctable))
    shards = partition_prepared(prepared, partitioner)
    assert len(shards) == n_shards
    seen = set()
    for shard in shards:
        docs = set(shard.doc_ids)
        assert len(docs) == len(shard.doc_ids)
        assert not (docs & seen), "a document landed on two shards"
        seen |= docs
        # the shard's local doctable describes exactly its documents
        assert set(shard.doctable.lengths) == docs
        for doc_id in docs:
            assert partitioner.shard_of(doc_id) == shard.shard_id
    assert seen == set(prepared.doctable.lengths)


@pytest.mark.parametrize("scheme", ["hash", "range"])
def test_global_statistics_reconstruct_from_shards(prepared, scheme):
    shards = partition_prepared(
        prepared, make_partitioner(scheme, 3, len(prepared.doctable))
    )
    df = {}
    ctf = {}
    postings = 0
    documents = 0
    for shard in shards:
        for term_id, value in shard.df.items():
            df[term_id] = df.get(term_id, 0) + value
        for term_id, value in shard.ctf.items():
            ctf[term_id] = ctf.get(term_id, 0) + value
        postings += shard.stats.postings
        documents += shard.stats.documents
    assert df == prepared.df
    assert ctf == prepared.ctf
    assert postings == prepared.stats.postings
    assert documents == prepared.stats.documents
    # document lengths re-assemble too (disjoint cover with same values)
    lengths = {}
    for shard in shards:
        lengths.update(shard.doctable.lengths)
    assert lengths == prepared.doctable.lengths


def test_single_shard_records_are_the_global_records(prepared):
    [shard] = partition_prepared(
        prepared, make_partitioner("hash", 1, len(prepared.doctable))
    )
    assert shard.records == prepared.records  # same bytes, same order


@pytest.mark.parametrize("scheme", ["hash", "range"])
def test_shard_records_match_per_posting_routing(prepared, scheme):
    """The columnar split equals routing each decoded posting to its home
    shard and encoding every slice with the scalar record encoder."""
    partitioner = make_partitioner(scheme, 3, len(prepared.doctable))
    expected = [[] for _ in range(3)]
    for term_id, record in prepared.records:
        slices = {}
        for posting in decode_record(record):
            slices.setdefault(partitioner.shard_of(posting[0]), []).append(posting)
        for shard_id, postings in slices.items():
            expected[shard_id].append((term_id, encode_record(postings), postings))
    for shard, rows in zip(partition_prepared(prepared, partitioner), expected):
        assert shard.records == [(term_id, record) for term_id, record, _p in rows]
        assert shard.df == {term_id: len(p) for term_id, _r, p in rows}
        assert shard.ctf == {
            term_id: sum(len(pos) for _d, pos in p) for term_id, _r, p in rows
        }
        assert shard.stats.record_sizes == [len(record) for _t, record, _p in rows]


def test_single_shard_platter_is_byte_identical(prepared, config, baseline):
    sharded = materialize_sharded(prepared, config, n_shards=1)
    disk = sharded.shards[0].fs.disk
    assert disk._blocks == baseline.fs.disk._blocks


def test_serving_view_carries_global_statistics(prepared):
    shards = partition_prepared(
        prepared, make_partitioner("hash", 2, len(prepared.doctable))
    )
    for shard in shards:
        view = shard.serving_view(prepared)
        # global document table: collection-wide doc count and lengths
        assert view.doctable is prepared.doctable
        for term_id in shard.df:
            assert view.df[term_id] == prepared.df[term_id]
            assert view.ctf[term_id] == prepared.ctf[term_id]
        # but local storage statistics: Table 2 buffers size per shard
        assert view.stats is shard.stats


def test_partitioners_are_deterministic_and_in_range():
    hash_partitioner = HashPartitioner(4)
    range_partitioner = RangePartitioner(4, 100)
    for doc_id in range(1, 101):
        assert 0 <= hash_partitioner.shard_of(doc_id) < 4
        assert hash_partitioner.shard_of(doc_id) == HashPartitioner(4).shard_of(doc_id)
        assert 0 <= range_partitioner.shard_of(doc_id) < 4
    # range shards are contiguous and balanced to within one document
    homes = [range_partitioner.shard_of(d) for d in range(1, 101)]
    assert homes == sorted(homes)
    counts = [homes.count(i) for i in range(4)]
    assert max(counts) - min(counts) <= 1


def test_partitioner_argument_validation():
    with pytest.raises(ConfigError):
        HashPartitioner(0)
    with pytest.raises(ConfigError):
        RangePartitioner(2, 0)
    with pytest.raises(ConfigError):
        make_partitioner("modulo", 2, 100)
    with pytest.raises(ConfigError):
        RangePartitioner(2, 100).shard_of(0)


def test_mismatched_partitioner_is_rejected(prepared, config):
    with pytest.raises(ConfigError):
        materialize_sharded(
            prepared, config, n_shards=3, partitioner=HashPartitioner(2)
        )


def test_materialize_delegates_to_sharded(prepared, config):
    sharded = materialize(prepared, config, shards=2, partitioner="range")
    assert sharded.n_shards == 2
    assert sharded.partitioner.scheme == "range"
    assert sharded.name == f"{config.name}x2"


def test_sharded_build_refuses_a_fault_plan(prepared, config):
    with pytest.raises(ConfigError, match="fault_shard"):
        materialize(prepared, config, fault_plan=FaultPlan(), shards=2)
