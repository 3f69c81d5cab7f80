"""The failover gate's own verdict machinery, without running the bench.

The four-collection replication benchmark itself is nightly CI
(``scripts/bench.sh failover --check``); the driver contract every gate
shares is pinned in ``test_gate_driver.py``.  Here: the exact-equality
comparator on this gate's cell shape, its printer, and the driver's exit
status when fed this gate's fabricated cells.
"""

import json

from repro.bench.failover import GATE, print_cell
from repro.bench.gate import compare_reports, run

from .conftest import run_check, with_cells, write_report


def make_cell(ok=True, failovers=2, post_split_miss=True):
    return {
        "config": "mneme-cache",
        "queries": 8,
        "daat_queries": 4,
        "r0_control": {"degraded_queries": 8, "deterministic": True},
        "kill_matrix": {
            "N2xR1": {"victims": 4, "clean": 4, "failovers": failovers},
            "N2xR2": {"victims": 6, "clean": 6, "failovers": failovers},
            "N4xR1": {"victims": 8, "clean": 8, "failovers": 2 * failovers},
            "N4xR2": {"victims": 12, "clean": 12, "failovers": 2 * failovers},
        },
        "daat_failover_clean": True,
        "rereplication": {
            "blocks_scanned": 31,
            "source_replica": 1,
            "byte_identical": True,
            "post_heal_failovers": 0,
        },
        "deterministic": True,
        "split": {
            "records_streamed": 11386,
            "postings_moved": 40000,
            "mirrors_verified": 4,
            "epoch": 1,
            "platters_match_fresh": True,
            "cache_invalidations": 1,
            "post_split_miss": post_split_miss,
            "rows_identical": True,
        },
        "violations": [] if ok else ["N=2 R=1: killing shard 0 was observable"],
        "ok": ok,
    }


def make_report(ok=True, **cell_kwargs):
    return {
        "benchmark": "failover",
        "config": "mneme-cache",
        "profiles": {"cacm-s": make_cell(ok=ok, **cell_kwargs)},
        "ok": ok,
    }


# -- the --check comparator -----------------------------------------------

def test_compare_identical_reports_pass():
    assert compare_reports(GATE, make_report(), make_report()) == []


def test_compare_rejects_any_cell_drift():
    baseline = make_report(failovers=2)
    current = make_report(failovers=3)
    failures = compare_reports(GATE, current, baseline)
    assert len(failures) == 1
    assert "kill_matrix drifted" in failures[0]


def test_compare_rejects_split_drift():
    baseline = make_report()
    current = make_report(post_split_miss=False)
    failures = compare_reports(GATE, current, baseline)
    assert any("split drifted" in failure for failure in failures)


def test_compare_fails_on_missing_profile():
    baseline = make_report()
    empty = {"benchmark": "failover", "profiles": {}, "ok": True}
    assert compare_reports(GATE, empty, baseline) == [
        "cacm-s: missing from the current run"
    ]


def test_compare_surfaces_current_violations():
    failures = compare_reports(GATE, make_report(ok=False), make_report())
    assert any("observable" in failure for failure in failures)


# -- printer --------------------------------------------------------------

def test_print_report_smoke(capsys):
    print_cell("cacm-s", make_cell())
    out = capsys.readouterr().out
    assert "cacm-s" in out
    assert "N2xR1" in out and "N4xR2" in out
    assert "re-replication" in out
    assert "split 2->4" in out
    assert "trace deterministic: True" in out

    print_cell("cacm-s", make_cell(ok=False))
    assert "VIOLATION" in capsys.readouterr().out


# -- exit status through the driver, on this gate's cells ------------------

def test_main_exit_codes_without_check(tmp_path):
    out = tmp_path / "BENCH_failover.json"
    argv = ["--profile", "cacm-s", "--out", str(out)]
    assert run(with_cells(GATE, make_cell()), argv) == 0
    assert json.loads(out.read_text())["ok"] is True

    assert run(with_cells(GATE, make_cell(ok=False)), argv) == 1
    assert json.loads(out.read_text())["ok"] is False


def test_check_passes_and_fails_against_baseline(tmp_path):
    baseline = write_report(tmp_path / "base.json", GATE, {"cacm-s": make_cell()})
    assert run_check(GATE, make_cell(), baseline) == 0
    assert run_check(GATE, make_cell(failovers=5), baseline) == 1


def test_check_restricted_profiles_gate_only_that_subset(tmp_path):
    # The nightly job checks two of the four baseline collections; the
    # untested profiles must not count as "missing from the current run".
    baseline = write_report(
        tmp_path / "base.json", GATE,
        {"cacm-s": make_cell(), "legal-s": make_cell(failovers=9)},
    )
    assert run_check(GATE, make_cell(), baseline) == 0


def test_check_profile_absent_from_baseline_is_operator_error(tmp_path, capsys):
    baseline = write_report(tmp_path / "base.json", GATE, {"legal-s": make_cell()})
    assert run_check(GATE, make_cell(), baseline) == 2
    assert "lacks profile" in capsys.readouterr().err


def test_check_missing_baseline_is_operator_error(tmp_path, capsys):
    assert run_check(GATE, make_cell(), tmp_path / "nope.json") == 2
    err = capsys.readouterr().err
    assert "no baseline" in err
    assert "\n" not in err.strip()  # a one-line diagnosis, not a traceback


def test_check_unparsable_baseline_is_operator_error(tmp_path, capsys):
    mangled = tmp_path / "BENCH_failover.json"
    mangled.write_text("{not json")
    assert run_check(GATE, make_cell(), mangled) == 2
    assert "not valid JSON" in capsys.readouterr().err

    mangled.write_text(json.dumps({"benchmark": "failover"}))
    assert run_check(GATE, make_cell(), mangled) == 2
    assert "not a failover report" in capsys.readouterr().err
