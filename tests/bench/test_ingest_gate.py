"""The ingest gate's own verdict machinery, without running the bench.

The four-collection mixed read/write benchmark itself is nightly CI
(``scripts/bench.sh ingest --check``); the driver contract every gate
shares is pinned in ``test_gate_driver.py``.  Here: the exact-equality
comparator on this gate's cell shape, the mutation schedule, the
printer, and the driver's exit status when fed this gate's fabricated
cells.  The single-profile end-to-end run rides along as a tier-2 test.
"""

import json

import pytest

from repro.bench.gate import compare_reports, run
from repro.bench.ingest import GATE, _schedule, print_cell

from .conftest import run_check, write_report


def make_cell(ok=True):
    scenario = {
        "epochs": 2,
        "docs_added": 24,
        "docs_deleted": 8,
        "ingest_wall_ms": 100.0,
        "ingest_docs_per_s": 320.0,
        "query_p50_ms": 12.5,
        "query_mean_ms": 14.0,
        "cache_invalidations": 2,
        "wal_marked": True,
        "compaction": {
            "tombstones_folded": 8,
            "records_rewritten": 40,
            "bytes_reclaimed": 8192,
            "segments_copied": 10,
            "post_compaction_hit_rate": 1.0,
        },
    }
    return {
        "config": "mneme-linked",
        "queries": 6,
        "daat_queries": 3,
        "flat": scenario,
        "sharded": dict(scenario, groups_verified_per_epoch=2),
        "deterministic": True,
        "violations": [] if ok else ["flat: compaction reclaimed nothing"],
        "ok": ok,
    }


def make_report(ok=True):
    return {
        "benchmark": "ingest",
        "config": "mneme-linked",
        "profiles": {"cacm-s": make_cell(ok)},
        "ok": ok,
    }


# -- comparator -----------------------------------------------------------

def test_identical_reports_pass():
    assert compare_reports(GATE, make_report(), make_report()) == []


def test_any_cell_drift_fails():
    current = make_report()
    current["profiles"]["cacm-s"]["flat"]["query_p50_ms"] = 13.0
    failures = compare_reports(GATE, current, make_report())
    assert len(failures) == 1 and "flat" in failures[0]


def test_violations_surface_in_check():
    failures = compare_reports(GATE, make_report(ok=False), make_report())
    assert any("reclaimed nothing" in f for f in failures)


def test_missing_profile_fails():
    current = make_report()
    current["profiles"] = {}
    failures = compare_reports(GATE, current, make_report())
    assert failures == ["cacm-s: missing from the current run"]


def test_deterministic_flag_is_gated():
    current = make_report()
    current["profiles"]["cacm-s"]["deterministic"] = False
    # The flag flip alone drifts, independent of the ok bit.
    failures = compare_reports(GATE, current, make_report())
    assert any("deterministic" in f for f in failures)


# -- schedule -------------------------------------------------------------

def test_schedule_is_a_pure_function_of_the_corpus(corpus_stub=None):
    class Stub:
        base_count = 10
        base_ids = list(range(1, 11))

    a = _schedule(Stub(), epochs=3, batch=6)
    b = _schedule(Stub(), epochs=3, batch=6)
    assert a == b
    # Adds never collide with live ids; deletes are always live.
    live = set(Stub.base_ids)
    for add_ids, delete_ids, live_ids in a:
        assert not set(add_ids) & live
        assert set(delete_ids) <= live
        live.update(add_ids)
        live.difference_update(delete_ids)
        assert sorted(live) == live_ids


# -- exit status through the driver, on this gate's cells ------------------

def test_check_without_baseline_is_an_operator_error(tmp_path, capsys):
    assert run_check(GATE, make_cell(), tmp_path / "missing.json") == 2
    assert "no baseline" in capsys.readouterr().err


def test_check_with_invalid_json_is_an_operator_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_check(GATE, make_cell(), bad) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_check_with_wrong_shape_is_an_operator_error(tmp_path, capsys):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"benchmark": "ingest"}))
    assert run_check(GATE, make_cell(), wrong) == 2
    assert "no 'profiles' key" in capsys.readouterr().err


def test_restricted_check_requires_profile_in_baseline(tmp_path, capsys):
    baseline = write_report(tmp_path / "base.json", GATE, {"legal-s": make_cell()})
    assert run_check(GATE, make_cell(), baseline) == 2
    assert "lacks profile" in capsys.readouterr().err


def test_check_compares_and_exits_one_on_drift(tmp_path, capsys):
    drifted = make_cell()
    drifted["flat"]["docs_added"] = 999
    baseline = write_report(tmp_path / "base.json", GATE, {"cacm-s": drifted})
    assert run_check(GATE, make_cell(), baseline) == 1
    assert "INGEST GATE FAILED" in capsys.readouterr().out


def test_check_passes_on_equal_reports(tmp_path, capsys):
    baseline = write_report(tmp_path / "base.json", GATE, {"cacm-s": make_cell()})
    assert run_check(GATE, make_cell(), baseline) == 0
    assert "ingest gate passed" in capsys.readouterr().out


def test_printer_handles_every_cell_shape(capsys):
    print_cell("cacm-s", make_cell(ok=False))
    out = capsys.readouterr().out
    assert "VIOLATION" in out and "compaction" in out


# -- the real thing, one profile (tier 2) ---------------------------------

@pytest.mark.tier2
def test_single_profile_gate_end_to_end(tmp_path):
    out = tmp_path / "BENCH_ingest.json"
    assert run(GATE, ["--profile", "cacm-s", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    cell = report["profiles"]["cacm-s"]
    assert cell["ok"] and cell["deterministic"]
    # And --check against its own output is clean.
    assert run(GATE, [
        "--profile", "cacm-s", "--check", "--baseline", str(out),
    ]) == 0
