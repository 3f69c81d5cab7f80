"""The saturation gate's own verdict machinery, without running the bench.

The four-collection overload benchmark itself is nightly CI
(``scripts/bench.sh saturate --check``); the driver contract every gate
shares is pinned in ``test_gate_driver.py``.  Here: the ``--check``
comparator (exact shed-fraction drift, banded p99), the admitted-ranking
invariance check, the printer, and the driver's exit status when fed
this gate's fabricated cells.
"""

import json
from types import SimpleNamespace

from repro.bench.gate import compare_reports, run
from repro.bench.reference import check_invariance
from repro.bench.saturate import GATE, print_cell

from .conftest import run_check, with_cells, write_report


def check_admitted(report, reference, label, violations):
    return check_invariance(
        report, reference, label, violations, noun="admitted"
    )


def served_row(text, ranking, outcome="miss"):
    return SimpleNamespace(
        text=text, outcome=outcome, result=SimpleNamespace(ranking=ranking)
    )


def worker_cell(p99=800.0, shed_fraction=0.25, goodput=40.0):
    return {
        "name": "w2",
        "offered": 120,
        "admitted": 90,
        "shed_queue_full": 25,
        "shed_deadline": 5,
        "shed_fraction": shed_fraction,
        "goodput_qps": goodput,
        "makespan_ms": 2250.0,
        "waves": 12,
        "workers": 2,
        "queue_limit": 32,
        "latency": {"count": 90, "mean_ms": 300.0, "p50_ms": 250.0,
                    "p95_ms": 700.0, "p99_ms": p99, "max_ms": p99},
        "per_class": {},
    }


def make_report(ok=True, p99=800.0, shed_fraction=0.25):
    cell = {
        "config": "mneme-cache",
        "shards": 2,
        "max_batch": 8,
        "queue_limit": 32,
        "mean_service_ms": 40.0,
        "max_service_ms": 90.0,
        "traffic": {"n_requests": 120, "rate_qps": 600.0, "repeat_rate": 0.0,
                    "deadline_ms": 320.0, "batch_fraction": 0.3,
                    "batch_deadline_ms": 640.0, "seed": 41},
        "p99_bound_ms": {"1": 2000.0, "2": 1500.0, "4": 1200.0},
        "workers": {
            "1": worker_cell(p99=1.5 * p99, shed_fraction=0.4, goodput=20.0),
            "2": worker_cell(p99=p99, shed_fraction=shed_fraction),
            "4": worker_cell(p99=0.7 * p99, shed_fraction=0.1, goodput=80.0),
        },
        "deterministic": True,
        "shard_skew": 1.02,
        "uncontrolled": {"p99_ms": 5.0 * p99, "max_ms": 6.0 * p99,
                         "throughput_qps": 30.0},
        "violations": [] if ok else ["w2: shed fraction is zero"],
        "ok": ok,
    }
    return {
        "benchmark": "saturate",
        "config": "mneme-cache",
        "profiles": {"cacm-s": cell},
        "ok": ok,
    }


def cell_of(report):
    return report["profiles"]["cacm-s"]


# -- invariance comparator ------------------------------------------------

def test_invariance_passes_on_identical_rankings():
    reference = {"q1": [(1, 0.5)], "q2": [(2, 0.4)]}
    report = SimpleNamespace(served=[
        served_row("q1", [(1, 0.5)]),
        served_row("q2", [(2, 0.4)]),
    ])
    violations = []
    assert check_admitted(report, reference, "w2", violations) == 0
    assert violations == []


def test_invariance_catches_any_divergence():
    reference = {"q1": [(1, 0.5)]}
    report = SimpleNamespace(served=[served_row("q1", [(1, 0.5000001)])])
    violations = []
    assert check_admitted(report, reference, "w2", violations) == 1
    assert "w2" in violations[0] and "'q1'" in violations[0]


def test_invariance_summarizes_mass_failures():
    reference = {"q": [(1, 0.5)]}
    report = SimpleNamespace(
        served=[served_row("q", [(1, 0.6)]) for _ in range(10)]
    )
    violations = []
    assert check_admitted(report, reference, "w1", violations) == 10
    assert len(violations) == 4
    assert "10 admitted rankings diverged" in violations[-1]


# -- the --check comparator -----------------------------------------------

def test_compare_identical_reports_pass():
    baseline = make_report(ok=True)
    assert compare_reports(GATE, make_report(ok=True), baseline) == []


def test_compare_rejects_any_shed_fraction_drift():
    baseline = make_report(ok=True, shed_fraction=0.25)
    current = make_report(ok=True, shed_fraction=0.2501)
    failures = compare_reports(GATE, current, baseline)
    assert len(failures) == 1
    assert "shed fraction drifted" in failures[0]
    assert "cacm-s/w2" in failures[0]


def test_compare_bands_p99_regressions():
    baseline = make_report(ok=True, p99=800.0)
    within = make_report(ok=True, p99=850.0)     # +6.25% < 10% band
    assert compare_reports(GATE, within, baseline) == []
    beyond = make_report(ok=True, p99=900.0)     # +12.5% > 10% band
    failures = compare_reports(GATE, beyond, baseline)
    assert any("p99" in failure for failure in failures)
    improved = make_report(ok=True, p99=500.0)   # improvements always pass
    assert compare_reports(GATE, improved, baseline) == []


def test_compare_fails_on_missing_profile_or_worker_point():
    baseline = make_report(ok=True)
    empty = {"benchmark": "saturate", "profiles": {}, "ok": True}
    failures = compare_reports(GATE, empty, baseline)
    assert failures == ["cacm-s: missing from the current run"]

    partial = make_report(ok=True)
    del partial["profiles"]["cacm-s"]["workers"]["4"]
    failures = compare_reports(GATE, partial, baseline)
    assert any("w4" in failure and "missing" in failure for failure in failures)


def test_compare_surfaces_current_violations():
    baseline = make_report(ok=True)
    broken = make_report(ok=False)
    failures = compare_reports(GATE, broken, baseline)
    assert any("shed fraction is zero" in failure for failure in failures)


# -- printer --------------------------------------------------------------

def test_print_report_smoke(capsys):
    print_cell("cacm-s", cell_of(make_report(ok=True)))
    out = capsys.readouterr().out
    assert "cacm-s" in out
    assert "w=1" in out and "w=4" in out
    assert "uncontrolled" in out
    assert "deterministic: True" in out

    print_cell("cacm-s", cell_of(make_report(ok=False)))
    assert "VIOLATION" in capsys.readouterr().out


# -- exit status through the driver, on this gate's cells ------------------

def test_main_exit_codes_without_check(tmp_path):
    out = tmp_path / "BENCH_saturate.json"
    argv = ["--profile", "cacm-s", "--out", str(out)]
    assert run(with_cells(GATE, cell_of(make_report(ok=True))), argv) == 0
    assert json.loads(out.read_text())["ok"] is True

    assert run(with_cells(GATE, cell_of(make_report(ok=False))), argv) == 1


def test_check_passes_and_fails_against_baseline(tmp_path):
    baseline = write_report(
        tmp_path / "base.json", GATE, make_report(ok=True)["profiles"]
    )
    assert run_check(GATE, cell_of(make_report(ok=True)), baseline) == 0
    drifted = cell_of(make_report(ok=True, shed_fraction=0.3))
    assert run_check(GATE, drifted, baseline) == 1
    # The band is the operator's: +12.5% p99 fails at 10%, passes at 20%.
    slower = cell_of(make_report(ok=True, p99=900.0))
    assert run_check(GATE, slower, baseline) == 1
    assert run_check(GATE, slower, baseline, "--p99-band", "0.2") == 0


def test_check_missing_baseline_is_operator_error(tmp_path, capsys):
    cell = cell_of(make_report(ok=True))
    assert run_check(GATE, cell, tmp_path / "nope.json") == 2
    err = capsys.readouterr().err
    assert "no baseline" in err
    assert "\n" not in err.strip()  # a one-line diagnosis, not a traceback


def test_check_unparsable_baseline_is_operator_error(tmp_path, capsys):
    cell = cell_of(make_report(ok=True))
    mangled = tmp_path / "BENCH_saturate.json"
    mangled.write_text("{not json")
    assert run_check(GATE, cell, mangled) == 2
    assert "not valid JSON" in capsys.readouterr().err

    mangled.write_text(json.dumps({"benchmark": "saturate"}))
    assert run_check(GATE, cell, mangled) == 2
    assert "not a saturate report" in capsys.readouterr().err
