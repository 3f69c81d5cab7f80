"""The whole runner on cut-down schedules: names, correctness, exit codes."""

import json

import pytest

import run
import verify
import workloads
from metrics import END_TO_END, PER_LAYER


@pytest.fixture
def short_schedules(monkeypatch):
    """Two ingest epochs and twelve shard waves instead of the full runs."""
    monkeypatch.setattr(workloads, "INGEST_EPOCHS", 2)
    monkeypatch.setattr(workloads, "COMPACT_AFTER", 1)
    monkeypatch.setattr(verify, "ORACLE_EPOCHS", (1, 2))
    full = workloads._SCHEDULES["shard-repeat"]

    def first_waves(collection, seed):
        inputs = full(collection, seed)
        return workloads.Inputs(inputs.collection, inputs.calls[:12])

    monkeypatch.setitem(workloads._SCHEDULES, "shard-repeat", first_waves)
    # No golden file describes a cut-down schedule.
    monkeypatch.setattr(verify, "GOLDEN_DIR", verify.GOLDEN_DIR / "absent")


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["shard-repeat", "ingest-mixed"])
def test_untraced_run_reports_every_end_to_end_metric(short_schedules, capsys, name):
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    line = last_line(capsys)
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [row.name for row in END_TO_END]
    for row in END_TO_END:
        assert line["metrics"][row.name]["unit"] == row.unit
        assert line["metrics"][row.name]["value"] > 0, row.name


@pytest.mark.parametrize("name", ["shard-repeat", "ingest-mixed"])
def test_traced_run_reports_every_per_layer_metric(short_schedules, capsys, tmp_path,
                                                   monkeypatch, name):
    monkeypatch.setattr(run, "HERE", tmp_path)
    assert run.main(["--workload", name, "--seed", "5", "--trace", "1"]) == 0
    line = last_line(capsys)
    assert list(line["metrics"]) == [row.name for row in PER_LAYER]
    values = {key: cell["value"] for key, cell in line["metrics"].items()}
    assert values["trace.unattributed_fraction"] <= 0.15
    assert values["trace.overhead_ratio"] > 0
    assert values["serve.service.self_ms"] > 0
    assert values["inquery.daat.self_ms"] == 0          # zero, not missing
    if name == "shard-repeat":
        assert values["shard.scheduler.self_ms"] > 0
        assert 0 < values["shard.scheduler.worker_busy_fraction"] <= 1
        assert values["live.ingest.real_docs_per_s"] == 0
    else:
        assert values["live.ingest.real_docs_per_s"] > 0
        assert values["mneme.txn.wal_bytes_per_doc"] > 0
        assert values["shard.scheduler.self_ms"] == 0
    trace = json.loads((tmp_path / "out" / f"{name}.trace.json").read_text())
    assert trace["columns"] == ["id", "name", "start_us", "end_us", "parent", "call"]
    assert len(trace["spans"]) > 0


def test_a_corrupted_expected_ranking_fails_the_run(short_schedules, capsys, monkeypatch):
    honest = verify.oracle_rankings

    def corrupted(m):
        expected = honest(m)
        table = expected[min(expected)]
        text = next(text for text, ranking in table.items() if ranking)
        table[text] = table[text][1:]
        return expected

    monkeypatch.setattr(verify, "oracle_rankings", corrupted)
    assert run.main(["--workload", "shard-repeat", "--seed", "5", "--seconds", "0"]) == 1
    line = last_line(capsys)
    assert line["correct"] is False and line["failed"] >= 1


def test_a_stale_golden_digest_fails_the_run(short_schedules, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "GOLDEN_DIR", tmp_path)
    arguments = ["--workload", "shard-repeat", "--seed", "5", "--seconds", "0"]
    assert run.main(arguments + ["--regen-golden"]) == 0
    path = tmp_path / "shard-repeat.seed5.json"
    golden = json.loads(path.read_text())
    assert run.main(arguments) == 0
    golden["digests"]["0"] = "0" * 64
    path.write_text(json.dumps(golden))
    capsys.readouterr()
    assert run.main(arguments) == 1
    assert last_line(capsys)["correct"] is False
