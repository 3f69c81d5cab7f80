"""BENCHMARK.json, the metric tables and the runner say the same thing."""

import json
import re
from pathlib import Path

import run
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["run_seconds"] == RUN_SECONDS


def test_workloads_match():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    for workload in WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_end_to_end_metrics_match():
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in END_TO_END
    )
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert max(m.bound for m in END_TO_END) == next(
        m.bound for m in END_TO_END if m.name == "setup_s"
    )


def test_per_layer_metrics_match():
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert 1 <= len(PER_LAYER) <= 128


def test_names_and_units_are_well_formed_and_unique():
    rows = [*END_TO_END, *PER_LAYER]
    names = [row.name for row in rows] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in rows:
        assert UNIT.fullmatch(row.unit), row.unit
        assert row.better in ("lower", "higher")


def test_runner_prints_exactly_the_declared_names(capsys):
    """What ``emit`` writes as the last line is keyed by the tables."""
    for table in (END_TO_END, PER_LAYER):
        result = {
            "correct": True, "attempted": 1, "failed": 0, "notes": {},
            "metrics": {row.name: {"value": 1.5, "unit": row.unit} for row in table},
        }
        run.emit(result)
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [row.name for row in table]
