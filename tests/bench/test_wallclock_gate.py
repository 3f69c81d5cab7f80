"""The wall-clock regression gate must itself be trustworthy.

A fabricated baseline with an injected slowdown has to fail the gate's
banded comparator; an in-band wobble has to pass.  Invariance violations
and missing profiles/phases are failures outright.  The driver contract
every gate shares is pinned in ``test_gate_driver.py``; here its exit
status is checked on this gate's fabricated cells, without running the
timed benchmark.
"""

import copy

import pytest

from repro.bench.gate import compare_reports as compare_gate_reports
from repro.bench.wallclock import (
    DEFAULT_MIN_BAND,
    GATE,
    _phase_row,
    _spread,
)
from repro.inquery.daat import daat_queries

from .conftest import run_check, write_report


def compare_reports(current, baseline):
    return compare_gate_reports(GATE, current, baseline)


def make_report(speedup=4.0, noise=0.05, invariant=True, identical=True):
    """A minimal two-profile report in the on-disk schema."""
    def row(s, n):
        return {
            "reference_s": round(s * 0.1, 4),
            "fastpath_s": 0.1,
            "speedup": s,
            "noise": n,
        }

    checks = {"rankings": identical, "simulated_clock": identical}
    report = {
        "benchmark": "wallclock",
        "repeats": 3,
        "profiles": {
            "cacm-s": {
                "config": "mneme-cache",
                "invariant": invariant,
                "phases": {
                    "build": row(speedup, noise),
                    "query:cacm-1": dict(row(speedup, noise), identical=dict(checks)),
                    "daat:cacm-1": dict(row(speedup, noise), identical=dict(checks)),
                },
                "end_to_end": row(speedup, noise),
            },
            "legal-s": {
                "config": "mneme-cache",
                "invariant": invariant,
                "phases": {
                    "build": row(speedup, noise),
                    "query:legal-1": dict(row(speedup, noise), identical=dict(checks)),
                },
                "end_to_end": row(speedup, noise),
            },
        },
    }
    return report


def test_identical_reports_pass():
    baseline = make_report()
    assert compare_reports(copy.deepcopy(baseline), baseline) == []


def test_in_band_wobble_passes():
    baseline = make_report(speedup=4.0, noise=0.05)
    # A drop within the minimum band (35%): 4.0x -> 3.2x.
    current = make_report(speedup=3.2, noise=0.05)
    assert compare_reports(current, baseline) == []


def test_injected_slowdown_fails():
    baseline = make_report(speedup=4.0, noise=0.05)
    # Far out of band: the fast path degraded to parity.
    current = make_report(speedup=1.0, noise=0.05)
    failures = compare_reports(current, baseline)
    assert failures
    # Every phase of every profile regressed.
    assert any("cacm-s/build" in f for f in failures)
    assert any("legal-s/query:legal-1" in f for f in failures)
    assert any("daat:cacm-1" in f for f in failures)


def test_single_phase_slowdown_is_pinpointed():
    baseline = make_report(speedup=4.0, noise=0.05)
    current = make_report(speedup=4.0, noise=0.05)
    current["profiles"]["legal-s"]["phases"]["query:legal-1"]["speedup"] = 1.5
    failures = compare_reports(current, baseline)
    assert len(failures) == 1
    assert "legal-s/query:legal-1" in failures[0]


def test_noisy_phases_widen_the_band():
    baseline = make_report(speedup=4.0, noise=0.2)
    # 4.0x -> 2.2x is outside the 35% floor but inside the noise band:
    # 3 * (0.2 + 0.2) = 1.2, floor 4.0 / 2.2 = 1.82x.
    current = make_report(speedup=2.2, noise=0.2)
    assert compare_reports(current, baseline) == []
    # The same drop with quiet timings fails.
    assert compare_reports(
        make_report(speedup=2.2, noise=0.0), make_report(speedup=4.0, noise=0.0)
    )


def test_invariance_violation_fails_regardless_of_speed():
    baseline = make_report()
    current = make_report(speedup=10.0, invariant=False)
    failures = compare_reports(current, baseline)
    assert any("diverged" in f for f in failures)


def test_non_identical_phase_fails():
    baseline = make_report()
    current = make_report()
    current["profiles"]["cacm-s"]["phases"]["daat:cacm-1"]["identical"][
        "rankings"
    ] = False
    failures = compare_reports(current, baseline)
    assert any("cacm-s/daat:cacm-1" in f and "identical" in f for f in failures)


def test_missing_profile_and_phase_fail():
    baseline = make_report()
    current = make_report()
    del current["profiles"]["legal-s"]
    del current["profiles"]["cacm-s"]["phases"]["daat:cacm-1"]
    failures = compare_reports(current, baseline)
    assert any("legal-s: missing" in f for f in failures)
    assert any("cacm-s/daat:cacm-1" in f for f in failures)


def test_faster_than_baseline_passes():
    baseline = make_report(speedup=4.0)
    assert compare_reports(make_report(speedup=9.0), baseline) == []


def test_min_band_is_a_floor_not_a_cap():
    baseline = make_report(speedup=4.0, noise=0.0)
    current = make_report(speedup=4.0 / (1.0 + DEFAULT_MIN_BAND) - 0.05, noise=0.0)
    assert compare_reports(current, baseline)


# -- statistics helpers -----------------------------------------------------


def test_spread_and_phase_row():
    assert _spread([1.0, 1.0, 1.0]) == 0.0
    assert _spread([0.9, 1.0, 1.1]) == pytest.approx(0.2)
    assert _spread([0.0]) == 0.0
    row = _phase_row([2.0, 2.2, 1.8], [1.0, 1.1, 0.9])
    assert row["reference_s"] == 2.0
    assert row["fastpath_s"] == 1.0
    assert row["speedup"] == 2.0
    assert row["noise"] == pytest.approx(0.2)


def test_daat_queries_flatten_structured_sets():
    flat = daat_queries(["#sum( a b )", "#and( a b )"])
    assert flat == ["#sum( a b )"]  # flat subset preferred
    derived = daat_queries(["#and( a b )", "#phrase( c d )"])
    assert derived == ["#sum( a b )", "#sum( c d )"]


# -- exit status through the driver, on this gate's cells ------------------


def test_check_cli_exit_codes(tmp_path):
    def cell(speedup):
        return make_report(speedup=speedup, noise=0.0)["profiles"]["cacm-s"]

    baseline = write_report(
        tmp_path / "baseline.json", GATE, {"cacm-s": cell(4.0)}
    )

    assert run_check(GATE, cell(3.8), baseline) == 0
    assert run_check(GATE, cell(1.0), baseline) == 1
    # The band is the operator's: 4.0x -> 3.2x passes at 35%, fails at 10%.
    assert run_check(GATE, cell(3.2), baseline) == 0
    assert run_check(GATE, cell(3.2), baseline, "--min-band", "0.1") == 1
    assert run_check(GATE, cell(3.8), tmp_path / "absent.json") == 2
