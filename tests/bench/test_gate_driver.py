"""The one gate driver's contract, on every gate in the registry.

Flags, report envelope, where the report is written, ``--check`` and the
exit status (0 pass, 1 violation or drift, 2 operator error) are the
driver's, so they are tested once and parametrised over the registry;
the per-gate files keep only what is the gate's own (comparator bands,
printers, helpers).  Measurements are fabricated: for a gate that
commits a baseline, the committed ``BENCH_<gate>.json`` cells stand in
for a fresh run, so the tests also pin that every committed baseline is
a report this driver accepts.
"""

import copy
import importlib
import json
from pathlib import Path

import pytest

from repro.bench import gate as gate_module
from repro.bench.gate import GATES, Gate, load_gate, main, run
from repro.bench.runner import PROFILE_ORDER
from repro.inquery.engine import DEFAULT_TOP_K

from .conftest import run_check, with_cells, write_report

REPO_ROOT = Path(__file__).resolve().parents[2]
ALL = [load_gate(name) for name in GATES]
WITH_BASELINE = [gate for gate in ALL if gate.has_baseline]
SHARED_FLAGS = {"--profile", "--config", "--out", "--check", "--baseline"}

#: Every gate-specific flag with its default: names and defaults are
#: part of the command-line contract.
FLAGS = {
    "wallclock": ("mneme-cache", {"--repeats": 3, "--min-band": 0.35}),
    "shards": ("mneme-cache", {"--shards": [1, 2, 4], "--min-speedup": 1.5}),
    "serve": ("mneme-cache", {"--requests": 160, "--shards": 2,
                              "--min-p50-speedup": 5.0}),
    "saturate": ("mneme-cache", {"--requests": 120, "--shards": 2,
                                 "--p99-band": 0.10}),
    "failover": ("mneme-cache", {"--queries": 8}),
    "prune": ("mneme-linked", {"--top-k": DEFAULT_TOP_K,
                               "--min-speedup": 1.5}),
    "ingest": ("mneme-linked", {"--queries": 6}),
    "termcache": ("mneme-linked", {"--queries": 6}),
    "chaos": ("mneme-linked", {"--seed": 1337, "--sweep": 1}),
}


def by_name(gates):
    return pytest.mark.parametrize("gate", gates, ids=lambda gate: gate.name)


def committed(gate) -> dict:
    return json.loads((REPO_ROOT / gate.baseline_path).read_text())


def passing_cell(gate):
    """A cell the gate would have measured on ``cacm-s``, all contracts met."""
    if gate.has_baseline:
        return committed(gate)["profiles"]["cacm-s"]
    return [{"seed": 1337, "config": gate.default_config,
             "violations": [], "ok": True}]


def violating_cell(gate):
    """The same cell with a contract violation recorded in the run."""
    cell = copy.deepcopy(passing_cell(gate))
    if gate.name == "wallclock":
        cell["invariant"] = False
        return cell
    record = cell[0] if isinstance(cell, list) else cell
    record["ok"] = False
    record["violations"] = ["injected: a contract broke"]
    return cell


def drifted_cell(gate):
    """A clean cell that no longer matches the baseline."""
    cell = copy.deepcopy(passing_cell(gate))
    if gate.name == "wallclock":
        for row in cell["phases"].values():
            row["speedup"] = 0.01
    elif gate.name == "saturate":
        cell["workers"]["1"]["shed_fraction"] += 0.25
    else:
        key = next(k for k in cell if k not in ("config", "violations", "ok"))
        cell[key] = {"drifted": cell[key]}
    return cell


# -- the registry ---------------------------------------------------------

def test_registry_names_flags_and_defaults():
    assert list(GATES) == list(FLAGS)
    for gate in ALL:
        config, flags = FLAGS[gate.name]
        declared = {
            option.flag: option.default
            for option in gate.options + gate.check_options
        }
        assert gate.default_config == config
        assert declared == flags, gate.name
        assert not set(declared) & SHARED_FLAGS
        assert gate.has_baseline == (gate.name != "chaos")


def test_no_gate_module_keeps_a_driver_of_its_own():
    for name in GATES:
        module = importlib.import_module(f"repro.bench.{name}")
        for leftover in ("main", "run_benchmark", "compare_reports"):
            assert not hasattr(module, leftover), (name, leftover)


@by_name(WITH_BASELINE)
def test_committed_baseline_holds_all_four_profiles(gate):
    assert list(committed(gate)["profiles"]) == list(PROFILE_ORDER)


# -- a plain run: options, envelope, verdict -------------------------------

@by_name(ALL)
def test_defaults_reach_the_measurement_and_the_envelope(gate, tmp_path):
    calls = []
    cell = passing_cell(gate)
    out = tmp_path / "report.json"
    fake = with_cells(gate, cell, calls)
    assert run(fake, ["--profile", "cacm-s", "--out", str(out)]) == 0

    [(profile, config, options)] = calls
    assert (profile, config) == ("cacm-s", gate.default_config)
    assert options == {o.dest: o.default for o in gate.options}

    report = json.loads(out.read_text())
    assert report["benchmark"] == gate.name
    assert report["description"] == gate.description
    assert report["profiles"] == {"cacm-s": cell}
    if gate.has_baseline:
        # Same envelope keys, same order, as the committed report.
        assert list(report) == list(committed(gate))
    if gate.summary_ok:
        assert report["ok"] is True and list(report)[-1] == "ok"


@by_name(ALL)
def test_flags_are_passed_through_by_name(gate, tmp_path):
    calls = []
    argv = ["--profile", "legal-s", "--config", "btree"]
    expected = {}
    for option in gate.options:
        words = ["3", "5"] if option.nargs else ["7"]
        values = [option.type(word) for word in words]
        argv += [option.flag, *words]
        expected[option.dest] = values if option.nargs else values[0]
    assert run(with_cells(gate, passing_cell(gate), calls), argv) == 0
    assert calls == [("legal-s", "btree", expected)]


@by_name(ALL)
def test_violation_in_the_run_is_exit_one(gate, capsys):
    assert run(with_cells(gate, violating_cell(gate)),
               ["--profile", "cacm-s"]) == 1
    assert f"{gate.name.upper()} GATE FAILED" in capsys.readouterr().out


@by_name(ALL)
def test_profiles_run_in_paper_order_by_default(gate, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    assert run(with_cells(gate, passing_cell(gate), calls), []) == 0
    assert [profile for profile, _, _ in calls] == list(PROFILE_ORDER)


# -- operator errors: exit 2, one line, no traceback -----------------------

def assert_operator_error(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "\n" not in captured.err.strip()
    assert "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in captured.err


@by_name(ALL)
def test_unknown_profile_is_an_operator_error(gate, capsys):
    calls = []
    fake = with_cells(gate, passing_cell(gate), calls)
    assert run(fake, ["--profile", "nope"]) == 2
    assert calls == []
    assert_operator_error(capsys, gate.name, "--profile", "'nope'")


@by_name(ALL)
def test_unknown_flag_is_an_operator_error(gate, capsys):
    assert run(with_cells(gate, passing_cell(gate)), ["--no-such-flag"]) == 2
    assert_operator_error(capsys, "--no-such-flag")


def test_unknown_gate_is_an_operator_error(capsys):
    assert main(["nope", "--profile", "cacm-s"]) == 2
    assert_operator_error(capsys, "unknown gate 'nope'", "termcache")
    assert main([]) == 2


def test_chaos_commits_no_baseline_so_has_no_check(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    chaos = load_gate("chaos")
    assert run(with_cells(chaos, passing_cell(chaos)), ["--check"]) == 2
    assert_operator_error(capsys, "--check")
    # ... and a full run leaves nothing behind unless --out says where.
    assert run(with_cells(chaos, passing_cell(chaos)), []) == 0
    assert list(tmp_path.iterdir()) == []


@by_name(WITH_BASELINE)
def test_bad_baselines_are_operator_errors(gate, tmp_path, capsys):
    calls = []
    cell = passing_cell(gate)

    def check(path):
        return run(
            with_cells(gate, cell, calls),
            ["--profile", "cacm-s", "--check", "--baseline", str(path)],
        )

    assert check(tmp_path / "absent.json") == 2
    assert_operator_error(capsys, "no baseline at")

    assert check(tmp_path) == 2  # a directory: readable name, unreadable file
    assert_operator_error(capsys, "cannot read baseline")

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert check(mangled) == 2
    assert_operator_error(capsys, "not valid JSON")

    mangled.write_bytes(b"\xff\xfe\x00")
    assert check(mangled) == 2
    assert_operator_error(capsys, "not valid JSON")

    for wrong_shape in ({"benchmark": gate.name}, ["profiles"],
                        {"profiles": ["cacm-s"]}):
        mangled.write_text(json.dumps(wrong_shape))
        assert check(mangled) == 2
        assert_operator_error(capsys, f"not a {gate.name} report")

    # Diagnosed before the minutes-long measurement, not after it.
    assert calls == []


@by_name(WITH_BASELINE)
def test_profile_absent_from_the_baseline_is_an_operator_error(
    gate, tmp_path, capsys
):
    cell = passing_cell(gate)
    baseline = write_report(tmp_path / "base.json", gate, {"legal-s": cell})
    assert run_check(gate, cell, baseline) == 2
    assert_operator_error(capsys, "lacks profile(s) cacm-s")
    # A full run needs all four in the baseline, too.
    assert run(with_cells(gate, cell),
               ["--check", "--baseline", str(baseline)]) == 2
    assert_operator_error(capsys, "lacks profile(s) cacm-s, tipster1-s")


# -- --check ----------------------------------------------------------------

@by_name(WITH_BASELINE)
def test_check_equal_passes_drift_and_violation_fail(gate, tmp_path, capsys):
    cell = passing_cell(gate)
    baseline = write_report(tmp_path / "base.json", gate, {"cacm-s": cell})

    assert run_check(gate, cell, baseline) == 0
    assert f"{gate.name} gate passed" in capsys.readouterr().out

    assert run_check(gate, drifted_cell(gate), baseline) == 1
    out = capsys.readouterr().out
    assert f"{gate.name.upper()} GATE FAILED:" in out
    assert "  - cacm-s" in out

    assert run_check(gate, violating_cell(gate), baseline) == 1


@by_name(WITH_BASELINE)
def test_check_restricted_by_profile_gates_only_that_profile(gate, capsys):
    # Against the committed four-profile baseline: the three profiles
    # not run are not "missing from the current run".
    cell = passing_cell(gate)
    assert run_check(gate, cell, REPO_ROOT / gate.baseline_path) == 0
    assert "missing from the current run" not in capsys.readouterr().out

    full = committed(gate)["profiles"]
    assert run(with_cells(gate, full),
               ["--check", "--baseline", str(REPO_ROOT / gate.baseline_path)]
               ) == 0


@by_name(WITH_BASELINE)
def test_check_writes_only_where_out_points(gate, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cell = passing_cell(gate)
    baseline = write_report(tmp_path / "base.json", gate, {"cacm-s": cell})
    before = baseline.read_bytes()
    assert run_check(gate, cell, baseline) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.json"]
    assert run_check(gate, cell, baseline, "--out", "mine.json") == 0
    assert json.loads((tmp_path / "mine.json").read_text())["profiles"] == {
        "cacm-s": cell
    }
    assert baseline.read_bytes() == before


# -- where the report goes --------------------------------------------------

@by_name(WITH_BASELINE)
def test_restricted_run_never_touches_the_default_baseline(
    gate, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    committed_bytes = (REPO_ROOT / gate.baseline_path).read_bytes()
    (tmp_path / gate.baseline_path).write_bytes(committed_bytes)

    assert run(with_cells(gate, passing_cell(gate)),
               ["--profile", "cacm-s"]) == 0
    assert (tmp_path / gate.baseline_path).read_bytes() == committed_bytes
    assert [p.name for p in tmp_path.iterdir()] == [gate.baseline_path.name]


@by_name(WITH_BASELINE)
def test_full_run_regenerates_the_committed_baseline_byte_for_byte(
    gate, tmp_path, monkeypatch
):
    # Fed the committed cells, the driver must write the committed file
    # back: same envelope keys in the same order, same serialisation.
    monkeypatch.chdir(tmp_path)
    report = committed(gate)
    argv = []
    if gate.name == "wallclock":
        argv = ["--repeats", str(report["repeats"])]
    assert run(with_cells(gate, report["profiles"]), argv) == 0
    written = (tmp_path / gate.baseline_path).read_bytes()
    assert written == (REPO_ROOT / gate.baseline_path).read_bytes()


# -- dispatch ---------------------------------------------------------------

def test_main_hands_the_rest_of_argv_to_the_named_gate(monkeypatch):
    seen = []
    monkeypatch.setattr(
        gate_module, "run", lambda gate, argv: seen.append((gate, argv)) or 0
    )
    assert main(["termcache", "--queries", "4", "--check"]) == 0
    [(gate, argv)] = seen
    assert isinstance(gate, Gate) and gate.name == "termcache"
    assert argv == ["--queries", "4", "--check"]
