"""Tests for the integrity checker — including corruption detection."""

import pytest

from repro.core import (
    check_index,
    check_store,
    check_system,
    config_by_name,
    materialize,
)
from repro.inquery import Document, IndexBuilder, MnemeInvertedFile
from repro.simdisk import SimClock, SimDisk, SimFileSystem

from .conftest import TINY


def small_mneme_index():
    fs = SimFileSystem(SimDisk(SimClock()), cache_blocks=128)
    store = MnemeInvertedFile(fs)
    builder = IndexBuilder(fs, store, stem_fn=str)
    for doc_id in range(1, 40):
        builder.add_document(
            Document(doc_id, tokens=[f"t{doc_id % 9}", "shared", f"u{doc_id}"])
        )
    return builder.finalize()


class TestCleanSystems:
    def test_fresh_index_is_clean(self):
        index = small_mneme_index()
        report = check_system(index)
        assert report.ok, [str(i) for i in report.issues]
        assert report.checks > 100

    def test_all_backends_clean(self, tiny_prepared):
        for name in ("btree", "mneme-nocache", "mneme-cache", "mneme-linked"):
            system = materialize(tiny_prepared, config_by_name(name))
            report = check_system(system.index, sample_every=5)
            assert report.ok, (name, [str(i) for i in report.issues])

    def test_clean_after_updates(self):
        from repro.inquery import (
            add_documents_incremental,
            fold_tombstones,
            tombstone_document_incremental,
        )

        index = small_mneme_index()
        add_documents_incremental(index, [Document(99, tokens=["shared", "fresh"])])
        tombstone_document_incremental(
            index, Document(3, tokens=["t3", "shared", "u3"])
        )
        fold_tombstones(index)
        report = check_system(index)
        assert report.ok, [str(i) for i in report.issues]

    def test_clean_after_gc_and_compaction(self):
        from repro.mneme import compact

        index = small_mneme_index()
        store = index.store
        compact(store.mfile)
        report = check_system(index)
        assert report.ok, [str(i) for i in report.issues]


class TestCorruptionDetection:
    def test_segment_corruption_detected(self):
        index = small_mneme_index()
        store = index.store
        # Flip bytes in the middle of the main file's segment area.
        main = store.mfile.main
        main.write(main.size // 2, b"\xde\xad\xbe\xef" * 4)
        store.mfile.drop_user_caches()
        report = check_store(store.mfile)
        assert not report.ok
        assert any("undecodable" in issue.message for issue in report.issues)

    def test_wrong_df_detected(self):
        index = small_mneme_index()
        entry = index.dictionary.lookup("shared")
        entry.df += 5
        report = check_index(index)
        assert any("df" in issue.message for issue in report.issues)

    def test_wrong_ctf_detected(self):
        index = small_mneme_index()
        entry = index.dictionary.lookup("shared")
        entry.ctf -= 1
        report = check_index(index)
        assert any("ctf" in issue.message for issue in report.issues)

    def test_dangling_storage_key_detected(self):
        index = small_mneme_index()
        entry = index.dictionary.lookup("shared")
        entry.storage_key = 0
        report = check_index(index)
        assert any("no storage key" in issue.message for issue in report.issues)

    def test_unknown_document_detected(self):
        index = small_mneme_index()
        index.doctable.remove(5)
        report = check_index(index)
        assert any("unknown document" in issue.message for issue in report.issues)

    def test_issue_rendering(self):
        index = small_mneme_index()
        index.dictionary.lookup("shared").df += 1
        report = check_index(index)
        text = str(report.issues[0])
        assert "shared" in text


class TestSampling:
    def test_sample_every_reduces_checks(self):
        index = small_mneme_index()
        full = check_index(index, sample_every=1)
        sampled = check_index(index, sample_every=7)
        assert sampled.checks < full.checks
        assert sampled.ok

    def test_bad_sample_every_coerced(self):
        index = small_mneme_index()
        report = check_index(index, sample_every=0)
        assert report.ok
