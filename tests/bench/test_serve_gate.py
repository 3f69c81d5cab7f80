"""The serve gate's own verdict machinery, without running the timed bench.

The four-collection traffic benchmark itself is nightly CI
(``scripts/bench.sh serve --check``); the driver contract every gate
shares is pinned in ``test_gate_driver.py``.  Here: the served-ranking
invariance check, the printer on every cell shape, and the driver's
exit status when fed this gate's fabricated cells.
"""

import json
from types import SimpleNamespace

from repro.bench.gate import run
from repro.bench.reference import check_invariance
from repro.bench.serve import GATE, print_cell

from .conftest import with_cells


def served_row(text, ranking, outcome="miss"):
    return SimpleNamespace(
        text=text, outcome=outcome, result=SimpleNamespace(ranking=ranking)
    )


def make_report(ok=True):
    summary = {
        "count": 4, "mean_ms": 2.0, "p50_ms": 1.5, "p95_ms": 4.0,
        "p99_ms": 5.0, "max_ms": 5.0, "requests": 4, "waves": 2,
        "throughput_qps": 100.0, "hit_rate": 0.5,
        "outcomes": {"hit": 2, "miss": 2, "shared": 0},
    }
    cell = {
        "config": "mneme-cache",
        "shards": 2,
        "mean_service_ms": 1.0,
        "traffic": {"n_requests": 4, "rate_qps": 50.0,
                    "repeat_rate": 0.75, "seed": 29},
        "cache_on": dict(summary),
        "cache_off": dict(summary, p50_ms=9.0),
        "p50_speedup": 6.0,
        "daat": dict(summary),
        "burst_throughput_qps_by_workers": {"1": 10.0, "2": 19.0, "4": 35.0},
        "dead_shard": {"requests": 2, "degraded_served": 2,
                       "cache_entries": 0, "rejected_degraded": 2},
        "violations": [] if ok else ["cache: p50 speedup 1.00x is below"],
        "ok": ok,
    }
    return {
        "benchmark": "serve",
        "config": "mneme-cache",
        "min_p50_speedup": 5.0,
        "profiles": {"cacm-s": cell},
        "ok": ok,
    }


def test_invariance_passes_on_identical_rankings():
    reference = {"q1": [(1, 0.5)], "q2": [(2, 0.4)]}
    report = SimpleNamespace(served=[
        served_row("q1", [(1, 0.5)], "miss"),
        served_row("q2", [(2, 0.4)], "hit"),
        served_row("q1", [(1, 0.5)], "shared"),
    ])
    violations = []
    assert check_invariance(report, reference, "label", violations) == 0
    assert violations == []


def test_invariance_catches_any_divergence():
    reference = {"q1": [(1, 0.5)]}
    report = SimpleNamespace(served=[
        served_row("q1", [(1, 0.5000001)], "hit"),
    ])
    violations = []
    assert check_invariance(report, reference, "label", violations) == 1
    assert len(violations) == 1
    assert "label" in violations[0]
    assert "'q1'" in violations[0]


def test_invariance_summarizes_mass_failures():
    reference = {"q": [(1, 0.5)]}
    report = SimpleNamespace(
        served=[served_row("q", [(1, 0.6)], "miss") for _ in range(10)]
    )
    violations = []
    assert check_invariance(report, reference, "label", violations) == 10
    # Three verbose rows plus one total line, not ten.
    assert len(violations) == 4
    assert "10 served rankings diverged" in violations[-1]


def test_print_report_smoke(capsys):
    print_cell("cacm-s", make_report(ok=True)["profiles"]["cacm-s"])
    out = capsys.readouterr().out
    assert "cacm-s" in out
    assert "p50 speedup 6.00x" in out
    assert "burst scaling" in out
    assert "dead shard" in out

    print_cell("cacm-s", make_report(ok=False)["profiles"]["cacm-s"])
    assert "VIOLATION" in capsys.readouterr().out


def test_print_report_handles_raised_dead_shard(capsys):
    cell = make_report(ok=False)["profiles"]["cacm-s"]
    cell["dead_shard"] = {"raised": True}
    print_cell("cacm-s", cell)
    assert "dead shard" not in capsys.readouterr().out


def test_main_exit_codes(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    argv = ["--profile", "cacm-s", "--out", str(out)]
    passing = make_report(ok=True)["profiles"]["cacm-s"]
    assert run(with_cells(GATE, passing), argv) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True and report["min_p50_speedup"] == 5.0

    failing = make_report(ok=False)["profiles"]["cacm-s"]
    assert run(with_cells(GATE, failing), argv) == 1
