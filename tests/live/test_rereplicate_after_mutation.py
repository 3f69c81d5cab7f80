"""Re-replication copies the survivor's platter, whatever the group went through.

A 2x2 service (two shards, one mirror each) on every Mneme store is
healed — ``mark_down`` then ``rereplicate`` of shard 0's primary — on a
fresh group, after an ingest batch and after a compaction, and keeps
taking writes afterwards.  After every step every served ranking equals
a stop-the-world rebuild of the epoch's live corpus, the ingest
pipeline's per-group block compare passes (it raises otherwise), the
copy's Mneme file audits clean, and ``check_index`` reports on the copy
exactly what it reports on its source.  A shard dictionary carries the
collection-wide df/ctf, so ``check_index`` flags those on every shard
machine: equality, not a clean report, is the bar.

The copy also keeps verifying segment checksums: a byte flipped on its
platter is caught (or read-repaired from the redo log), not served.
"""

import pytest

from repro.core import config_by_name, materialize
from repro.core.validate import check_index, check_store
from repro.errors import ChecksumError
from repro.live import reference_rankings
from repro.serve import QueryService
from repro.simdisk import BLOCK_SIZE
from repro.synth.traffic import TimedRequest

STORES = {
    "mneme-linked-wal": ("mneme-linked", True),
    "mneme-linked": ("mneme-linked", False),
    "mneme-cache": ("mneme-cache", False),
}


def _config(store):
    name, wal = STORES[store]
    return config_by_name(name, use_wal=wal)


@pytest.fixture(scope="module")
def references():
    """Rebuild rankings by live-document set, shared across cases."""
    return {}


class _Live:
    """One 2x2 service, its next fresh document id and its oracle."""

    def __init__(self, prepared, corpus, config, queries, references, oracle_config):
        self.service = QueryService(
            materialize(prepared, config, shards=2, replicas=1),
            workers=2, use_cache=False,
        )
        self.backend = self.service.backend
        self.corpus, self.queries, self.references = corpus, queries, references
        self.oracle_config = oracle_config
        self.next_id = corpus.base_count + 2048  # clear of other tests' ids

    def ingest(self, adds=3):
        live = sorted(self.service.ingest_pipeline.epochs.live_docs())
        self.service.ingest(
            adds=self.corpus.new_documents(adds, after=self.next_id),
            deletes=self.corpus.documents_for(live[5:7]),
        )
        self.next_id += adds

    def heal(self):
        self.backend.mark_down(0, 0)
        report = self.backend.rereplicate(0, 0)
        assert report["verified"] and report["source_replica"] == 1
        assert self.backend.replicas_down == ()
        return self.backend.replica(0, 0), self.backend.replica(0, 1)

    def check_rankings(self):
        live_docs = self.service.ingest_pipeline.epochs.live_docs()
        if live_docs not in self.references:
            self.references[live_docs] = reference_rankings(
                self.oracle_config, self.corpus.documents_for(live_docs),
                self.queries,
            )
        run = self.service.process([
            TimedRequest(text=text, arrival_ms=0.0, seq=i)
            for i, text in enumerate(self.queries)
        ])
        assert not any(row.result.degraded for row in run.served)
        assert {
            row.text: row.result.ranking for row in run.served
        } == self.references[live_docs]


def _mutate(live, state):
    if state in ("ingest", "compact"):
        live.ingest()
    if state == "compact":
        live.service.compact()


@pytest.mark.parametrize("state", ["fresh", "ingest", "compact"])
@pytest.mark.parametrize("store", sorted(STORES))
def test_rereplicate_after_mutation(
    store, state, prepared, corpus, config, queries, references
):
    live = _Live(prepared, corpus, _config(store), queries, references, config)
    _mutate(live, state)
    copy, source = live.heal()
    assert copy.fs.disk._blocks == source.fs.disk._blocks
    assert check_store(copy.index.store.mfile).ok
    assert check_index(copy.index).issues == check_index(source.index).issues
    live.check_rankings()

    # The copy takes further writes in step with its sibling: the
    # pipeline block-compares the group after each one.
    live.ingest()
    live.check_rankings()
    live.service.compact()
    live.check_rankings()
    assert check_store(copy.index.store.mfile).ok
    assert check_index(copy.index).issues == check_index(source.index).issues


@pytest.mark.parametrize("state", ["fresh", "ingest"])
def test_btree_rereplicate_heals_and_serves(
    state, prepared, corpus, config, queries, references
):
    live = _Live(
        prepared, corpus, config_by_name("btree"), queries, references, config
    )
    _mutate(live, state)
    copy, source = live.heal()
    assert copy.fs.disk._blocks == source.fs.disk._blocks
    assert check_index(copy.index).issues == check_index(source.index).issues
    live.check_rankings()


@pytest.mark.parametrize("store", sorted(STORES))
def test_copy_keeps_verifying_segment_checksums(
    store, prepared, corpus, config, queries, references
):
    live = _Live(prepared, corpus, _config(store), queries, references, config)
    live.ingest()
    copy, source = live.heal()
    mfile = copy.index.store.mfile
    # The newest segment the source wrote, and so verifies.
    offset, (length, _crc) = max(source.index.store.mfile._crcs.items())
    good = mfile.main.read(offset, length)
    # Flip one stored byte under the live segment, behind every cache.
    block_no = mfile.main._blocks[offset // BLOCK_SIZE]
    stored = bytearray(copy.fs.disk.peek_block(block_no))
    stored[offset % BLOCK_SIZE] ^= 0xFF
    copy.fs.disk._blocks[block_no] = bytes(stored)
    mfile.main.invalidate_cached(offset, length)
    try:
        data = mfile.read_segment(offset, length)
    except ChecksumError:
        assert mfile.resilience.checksum_failures > 0
    else:
        assert mfile.wal is not None and mfile.resilience.read_repairs == 1
        assert data == good


def test_rereplication_scans_only_the_blocks_files_hold(
    prepared, corpus, config, queries, references
):
    # After an ingest and a compaction the survivor's device has free
    # blocks below its high-water mark; the copy reads and charges only
    # the blocks its files hold.
    live = _Live(
        prepared, corpus, _config("mneme-linked-wal"), queries, references, config
    )
    live.ingest()
    live.service.compact()
    source = live.backend.replica(0, 1)
    disk = source.fs.disk
    read = []
    read_block = disk.read_block
    disk.read_block = lambda block_no: read.append(block_no) or read_block(block_no)
    live.backend.mark_down(0, 0)
    report = live.backend.rereplicate(0, 0)
    held = sorted(
        block_no for name in source.fs.names()
        for block_no in source.fs.open(name)._blocks
    )
    assert report["blocks_scanned"] == len(held) < disk.blocks_allocated
    assert read[-len(held):] == held  # the scan is the survivor's last reads
