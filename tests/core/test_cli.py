"""Tests for the command-line interface."""

import pytest

from repro.bench import gate as gate_driver
from repro.cli import build_parser, main


def test_profiles_lists_all(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    for profile in ("cacm-s", "legal-s", "tipster1-s", "tipster-s"):
        assert profile in out


def test_demo_runs_queries(capsys):
    assert main(["demo", "--profile", "cacm-s", "wa", "#sum( wb wc )"]) == 0
    out = capsys.readouterr().out
    assert out.count("Query:") == 2
    assert "belief=" in out


def test_demo_daat_engine(capsys):
    assert main(["demo", "--profile", "cacm-s", "--daat", "#sum( wa wb )"]) == 0
    assert "belief=" in capsys.readouterr().out


def test_demo_no_matches(capsys):
    assert main(["demo", "--profile", "cacm-s", "zzzzzz"]) == 0
    assert "no matching documents" in capsys.readouterr().out



def _rankings(out):
    """The ``doc ... belief=...`` lines, without the shard annotation."""
    return [
        line.split("  (shard ")[0]
        for line in out.splitlines() if "belief=" in line
    ]


def test_demo_sharded_rankings_match_the_flat_demo(capsys):
    query = "#sum( wb wc )"
    assert main(["demo", "--profile", "cacm-s", query]) == 0
    flat = capsys.readouterr().out
    assert main([
        "demo", "--profile", "cacm-s", "--shards", "2", "--replicas", "1", query,
    ]) == 0
    sharded = capsys.readouterr().out
    assert "replica health" in sharded and "(shard " in sharded
    assert "top-10 contributions by shard:" in sharded
    assert _rankings(flat) and _rankings(sharded) == _rankings(flat)


def test_demo_ingest_publishes_before_serving(capsys):
    assert main(["demo", "--profile", "cacm-s", "--ingest", "3", "wa"]) == 0
    out = capsys.readouterr().out
    assert "Ingest: epoch 1 published (+3/-1 docs" in out
    assert out.index("Ingest:") < out.index("Query:")


def test_demo_daat_pruned(capsys):
    assert main([
        "demo", "--profile", "cacm-s", "--daat", "--prune", "auto",
        "#sum( wa wb )",
    ]) == 0
    assert "pruned:" in capsys.readouterr().out


def test_demo_deadline_sheds(capsys):
    assert main([
        "demo", "--profile", "cacm-s", "--rate", "5", "--deadline", "0.001",
        "wa", "wb", "wc",
    ]) == 0
    assert "SHED: deadline" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["#sum( wa"],
    ["--prune", "auto", "wa"],
], ids=["malformed-query", "prune-without-daat"])
def test_demo_reports_a_typed_error_in_one_line(argv, capsys):
    assert main(["demo", "--profile", "cacm-s", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err

def test_compare_prints_three_configs(capsys):
    assert main(["compare", "--profile", "cacm-s", "--set", "0"]) == 0
    out = capsys.readouterr().out
    for config in ("btree", "mneme-nocache", "mneme-cache"):
        assert config in out


def test_compare_bad_set_index(capsys):
    assert main(["compare", "--profile", "cacm-s", "--set", "9"]) == 2


def test_tables_subset(capsys):
    assert main(["tables", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out
    assert "Table 3" not in out


def test_tables_unknown_number(capsys):
    assert main(["tables", "9"]) == 2


def test_figures_unknown_number(capsys):
    assert main(["figures", "9"]) == 2


def test_figure1(capsys):
    assert main(["figures", "1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_validate_clean(capsys):
    assert main(["validate", "--profile", "cacm-s", "--sample-every", "10"]) == 0
    assert "0 issue(s)" in capsys.readouterr().out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_informetrics_command(capsys):
    assert main(["informetrics", "--profile", "cacm-s"]) == 0
    out = capsys.readouterr().out
    assert "Zipf-Mandelbrot s" in out
    assert "Pool partition audit" in out


def test_evaluate_command(capsys):
    assert main(["evaluate", "--profile", "cacm-s", "--set", "0"]) == 0
    out = capsys.readouterr().out
    assert "mean average precision" in out
    assert "Interpolated precision" in out


def test_evaluate_bad_set(capsys):
    assert main(["evaluate", "--profile", "cacm-s", "--set", "7"]) == 2


@pytest.mark.parametrize("argv", [
    ["wallclock", "--repeats", "1", "--min-band", "0.5", "--check"],
    ["chaos", "--profile", "cacm-s", "--seed", "7", "--sweep", "2"],
    ["shards", "--shards", "1", "2", "--min-speedup", "1.2", "--check"],
    ["serve", "--requests", "40", "--shards", "4", "--min-p50-speedup", "3"],
    ["saturate", "--requests", "40", "--p99-band", "0.2", "--check"],
    ["prune", "--top-k", "10", "--min-speedup", "1.1", "--out", "p.json"],
    ["failover", "--queries", "4", "--baseline", "b.json", "--check"],
    ["ingest", "--queries", "3", "--config", "mneme-linked"],
    ["termcache", "--queries", "3", "--profile", "legal-s", "--check"],
], ids=lambda argv: argv[0])
def test_gate_subcommands_reach_the_driver_with_flags_intact(argv, monkeypatch):
    seen = []
    monkeypatch.setattr(
        gate_driver, "run", lambda gate, rest: seen.append((gate.name, rest)) or 7
    )
    assert main(argv) == 7
    assert seen == [(argv[0], argv[1:])]


def test_gate_subcommand_rejects_an_unknown_profile(capsys):
    assert main(["prune", "--profile", "nope"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err and "Traceback" not in err


def test_help_lists_the_gates(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in gate_driver.GATES:
        assert name in out
