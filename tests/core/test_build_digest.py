"""Golden build digests: every platter byte and every build charge, pinned.

``prepare_collection -> materialize`` is a real-time hot spot that gets
optimised; the simulated machine it produces must not change.  For
``cacm-s`` on every store (the linked store with its redo log), flat and
2 shards x 2 replicas, each machine's digest covers:

* a sha256 over every allocated ``SimDisk`` block, in block order;
* the machine's ``SimClock`` buckets and ``DiskStats`` after the build;
* a sha256 of the ``index.dict`` bytes its dictionary saves;
* flat cells only: the clock, disk counters, platter hash and ranking
  digest after a cold start, one ingest batch and a few queries — the
  first-touch reads of auxiliary-table pages an ingest is charged for.

The committed ``build`` digests were produced by the reference
implementation before the bulk build paths existed.  Run this file under
``REPRO_FASTPATH=0`` too: both arms must reach the same bytes.
Regenerate with ``PYTHONPATH=src python tests/core/test_build_digest.py``
only for an intended format change, or, for the ``use`` half alone, an
intended change to how ingest writes; every ``build`` entry must come
out byte-identical, and the ``use`` rankings hash with it.
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.core import cold_start, config_by_name, materialize, prepare_collection
from repro.inquery import RetrievalEngine
from repro.live import IngestPipeline, LiveCorpus
from repro.simdisk import SimClock, SimDisk, SimFileSystem
from repro.synth import PROFILES, QueryProfile, SyntheticCollection, generate_query_set

GOLDEN = Path(__file__).with_name("build_digests.json")

STORES = (
    ("btree", {}),
    ("mneme-nocache", {}),
    ("mneme-cache", {}),
    ("mneme-linked", {"use_wal": True}),
)
LAYOUTS = {"flat": {}, "2x2": {"shards": 2, "replicas": 1}}
CELLS = [f"{store}/{layout}" for store, _ in STORES for layout in LAYOUTS]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _platter(system) -> str:
    disk = system.fs.disk
    digest = hashlib.sha256(struct.pack("<Q", disk.blocks_allocated))
    for block_no in range(disk.blocks_allocated):
        digest.update(disk.peek_block(block_no))
    return digest.hexdigest()


def _charges(system) -> list:
    time = system.clock.time
    stats = system.fs.disk.stats
    return [
        repr(time.user_ms), repr(time.system_ms), repr(time.io_ms),
        stats.blocks_read, stats.blocks_written,
        stats.sequential_reads, stats.random_reads,
    ]


def _dictionary_bytes(system) -> str:
    scratch = SimFileSystem(SimDisk(SimClock())).create("index.dict")
    system.index.dictionary.save(scratch)
    return _sha(scratch.read(0, scratch.size))


def _machine(system) -> dict:
    return {
        "platter": _platter(system),
        "charges": _charges(system),
        "dict": _dictionary_bytes(system),
    }


def _after_use(system, collection, queries) -> dict:
    cold_start(system)
    corpus = LiveCorpus(collection)
    IngestPipeline(system).apply(
        adds=corpus.new_documents(6, after=len(collection)),
        deletes=corpus.documents_for((3, 40)),
    )
    engine = RetrievalEngine(system.index, top_k=20)
    rankings = [engine.run_query(text).ranking for text in queries]
    return {
        "platter": _platter(system),
        "charges": _charges(system),
        "rankings": _sha(repr(rankings).encode()),
    }


def cell_digest(cell: str, prepared, queries) -> dict:
    store, layout = cell.split("/")
    config = config_by_name(store, **dict(STORES)[store])
    backend = materialize(prepared, config, **LAYOUTS[layout])
    if layout == "flat":
        return {
            "build": _machine(backend),
            "use": _after_use(backend, prepared.collection, queries),
        }
    return {
        "build": [
            _machine(machine)
            for group in backend.replica_groups for machine in group
        ]
    }


def cacm_inputs():
    collection = SyntheticCollection(PROFILES["cacm-s"])
    queries = generate_query_set(
        collection,
        QueryProfile(name="digest", style="weighted", n_queries=8, mean_terms=5, seed=3),
    ).queries
    return prepare_collection(collection), queries


@pytest.fixture(scope="module")
def cacm():
    return cacm_inputs()


@pytest.mark.parametrize("cell", CELLS)
def test_build_digest(cell, cacm):
    golden = json.loads(GOLDEN.read_text())
    assert cell_digest(cell, *cacm) == golden[cell]


if __name__ == "__main__":
    prepared, queries = cacm_inputs()
    GOLDEN.write_text(json.dumps(
        {cell: cell_digest(cell, prepared, queries) for cell in CELLS}, indent=1
    ) + "\n")
    print(f"wrote {GOLDEN}")
