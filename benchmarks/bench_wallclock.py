"""Real wall-clock speedup of the vectorized fast path.

Unlike the table benchmarks (which report *simulated* seconds), this
measures how long the reproduction itself takes to run: index build,
term-at-a-time and document-at-a-time query evaluation in real seconds,
pure-Python reference vs. the :mod:`repro.fastpath` kernels, with the
observational-identity contract (rankings, simulated clock, I/A/B,
buffer hits) asserted along the way.

The four-collection regression gate lives in
``scripts/bench.sh --check``; this tier2 test is the quick single-profile
speedup assertion.
"""

import json

import pytest

from conftest import once

from repro.bench.gate import run
from repro.bench.wallclock import GATE


@pytest.mark.tier2
def test_wallclock_fastpath_speedup(benchmark, results_dir):
    out = results_dir / "wallclock.json"
    argv = ["--profile", "legal-s", "--repeats", "1", "--out", str(out)]
    assert once(benchmark, lambda: run(GATE, argv)) == 0
    cell = json.loads(out.read_text())["profiles"]["legal-s"]

    # The fast path must be observationally identical to the reference.
    assert cell["invariant"], cell
    for name, row in cell["phases"].items():
        if "identical" in row:
            assert all(row["identical"].values()), (name, row["identical"])
    # Both engines must be covered by the gate's phases.
    assert any(name.startswith("query:") for name in cell["phases"])
    assert any(name.startswith("daat:") for name in cell["phases"])

    # The point of the exercise: a real end-to-end speedup.
    assert cell["end_to_end"]["speedup"] >= 3.0, cell["end_to_end"]
