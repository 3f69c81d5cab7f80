#!/usr/bin/env python3
"""Dynamic update: adding and removing documents without re-indexing.

Classic INQUERY treats collections as archival — "addition or deletion
of a single document to or from an existing collection is not directly
supported and requires the entire document collection to be re-indexed."
With the persistent object store underneath, per-record update becomes
tractable.  This example:

1. indexes a small collection on Mneme (with a write-ahead log),
2. adds a document incrementally and searches for it,
3. deletes a document — a tombstone the engines filter at once, made
   physical by folding the tombstones into the records — and shows its
   postings are gone,
4. grows a huge inverted list as a *linked object* (the paper's
   future-work feature) and compares the write traffic against
   relocating a contiguous object,
5. simulates a crash and recovers from the redo log.

Run:  python examples/incremental_updates.py
"""

from repro.inquery import (
    DEFAULT_STOPWORDS,
    Document,
    IndexBuilder,
    MnemeInvertedFile,
    RetrievalEngine,
    add_documents_incremental,
    fold_tombstones,
    tombstone_document_incremental,
)
from repro.mneme import (
    ChunkedLargeObjectPool,
    MnemeStore,
    RedoLog,
    append_linked,
    read_linked,
    recover,
    write_linked,
)
from repro.simdisk import SimClock, SimDisk, SimFileSystem

BASE_DOCUMENTS = [
    Document(1, "case-001", "contract dispute over software licensing terms"),
    Document(2, "case-002", "patent infringement claim on compression methods"),
    Document(3, "case-003", "appeal of a database copyright judgement"),
    Document(4, "case-004", "licensing terms for distributed database software"),
]


def main() -> None:
    clock = SimClock()
    fs = SimFileSystem(SimDisk(clock), cache_blocks=64)
    wal = RedoLog(fs.create("invfile.wal"))
    store = MnemeInvertedFile(fs, wal=wal)
    builder = IndexBuilder(fs, store, stopwords=DEFAULT_STOPWORDS)
    builder.add_documents(BASE_DOCUMENTS)
    index = builder.finalize()
    engine = RetrievalEngine(index, top_k=3)
    print(f"Indexed {index.stats.documents} base documents.")

    # -- incremental addition ------------------------------------------------
    new_doc = Document(5, "case-005",
                       "trade secret dispute over buffer management software")
    add_documents_incremental(index, [new_doc])
    result = engine.run_query("#and( buffer management )")
    print(f"\nAfter adding case-005, '#and( buffer management )' retrieves: "
          f"{[index.doctable.names[d] for d in result.doc_ids()]}")
    assert 5 in result.doc_ids()

    # -- incremental deletion -------------------------------------------------
    tombstone_document_incremental(index, BASE_DOCUMENTS[1])
    assert 2 not in engine.run_query("patent infringement").doc_ids()
    rewritten = fold_tombstones(index)
    print(f"Removed case-002; {rewritten} inverted lists rewritten.")
    assert 2 not in engine.run_query("patent infringement").doc_ids()

    # -- linked large objects for growing lists -------------------------------
    print("\nGrowing a 192 KB inverted list by 16 x 4 KB appends:")
    for variant in ("contiguous", "linked"):
        vclock = SimClock()
        vfs = SimFileSystem(SimDisk(vclock), cache_blocks=64)
        vstore = MnemeStore(vfs)
        mfile = vstore.open_file("big")
        pool = mfile.create_pool(3, ChunkedLargeObjectPool)
        mfile.load()
        body = b"x" * 196608
        if variant == "contiguous":
            oid = pool.create(body)
        else:
            oid = write_linked(pool, body, chunk_bytes=32768)
        mfile.flush()
        written_before = vfs.disk.stats.blocks_written
        grown = body
        for i in range(16):
            extra = bytes([65 + i]) * 4096
            grown += extra
            if variant == "contiguous":
                pool.modify(oid, grown)
            else:
                append_linked(pool, oid, extra, chunk_bytes=32768)
        mfile.flush()
        back = pool.fetch(oid) if variant == "contiguous" else read_linked(pool, oid)
        assert back == grown
        blocks = vfs.disk.stats.blocks_written - written_before
        print(f"  {variant:12s}: {blocks:5d} disk blocks written")

    # -- crash and recovery ----------------------------------------------------
    print("\nSimulating a crash: wiping the main file's segment area...")
    image = store.mfile.main.read(0, store.mfile.main.size)
    store.mfile.main.write(16, b"\x00" * (store.mfile.main.size - 16))
    report = recover(wal, store.mfile.main)
    restored = store.mfile.main.read(0, store.mfile.main.size)
    print(f"Recovery replayed {report.replayed} redo records "
          f"({report.bytes_replayed} bytes); torn tail: {report.torn_tail}")
    assert restored == image
    print("Main file bytes identical to the pre-crash image.")


if __name__ == "__main__":
    main()
