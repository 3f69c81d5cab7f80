"""Drive the one gate driver with fabricated measurements.

The gates' real measurements take minutes; the driver contract (flags,
envelope, where the report goes, ``--check``, exit status) and the
per-gate comparators are pinned against fabricated cells instead.
"""

import copy
import dataclasses
import json

from repro.bench.gate import run
from repro.bench.runner import PROFILE_ORDER


def with_cells(gate, cells, calls=None):
    """``gate`` measuring nothing, returning fabricated cells.

    ``cells`` maps profile name -> cell; anything not keyed by profile
    is the cell of every profile.  Each call's ``(profile, config,
    options)`` is appended to ``calls`` when given.
    """
    by_profile = isinstance(cells, dict) and set(cells) <= set(PROFILE_ORDER)

    def bench_profile(profile_name, config_name, **options):
        if calls is not None:
            calls.append((profile_name, config_name, options))
        return copy.deepcopy(cells[profile_name] if by_profile else cells)

    return dataclasses.replace(gate, bench_profile=bench_profile)


def run_check(gate, cell, baseline_path, *extra):
    """Exit status of ``--check --profile cacm-s`` with ``cell`` measured."""
    return run(
        with_cells(gate, cell),
        ["--profile", "cacm-s", "--check", "--baseline", str(baseline_path),
         *extra],
    )


def write_report(path, gate, cells):
    """A minimal on-disk report holding ``cells`` (profile name -> cell)."""
    path.write_text(
        json.dumps({"benchmark": gate.name, "profiles": cells}) + "\n"
    )
    return path
