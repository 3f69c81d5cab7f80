"""One driver for every regression gate.

A *gate* measures one collection profile at a time and returns a JSON
cell.  Everything around that measurement is the same for all nine
gates and lives here, once: the shared flags, the profile loop, the
report envelope, where the report is written, loading the baseline for
``--check`` and restricting it to the profiles actually run, the verdict
and the exit status.  A gate module holds only its measurement
(``bench_profile``), its cell printer and a :class:`Gate` declaration
named ``GATE``::

    python -m repro.bench <gate> [--profile P ...] [--config C] [--out PATH]
                          [--check] [--baseline PATH] [gate-specific flags]

(``repro <gate> ...``, ``scripts/bench.sh <gate> ...`` and
``scripts/chaos.sh ...`` all land here.)

Exit status, on every gate: **0** pass; **1** a contract violation in
the run or, with ``--check``, drift from the baseline; **2** operator
error — unknown gate, flag or profile, or a baseline that is missing,
unreadable, not JSON, not a gate report, or lacks a profile being run —
reported as one line on stderr, never a traceback.

Where the report goes: a full run (no ``--profile``, no ``--check``) of
a gate that commits a baseline rewrites ``./BENCH_<gate>.json``.  Any
other run writes only where an explicit ``--out`` points, so a one-profile
smoke can never truncate the committed four-profile baseline.
"""

import argparse
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .runner import PROFILE_ORDER

#: Every gate (a module of this package exposing ``GATE``) and the one
#: line ``repro --help`` shows for it.
GATES: Dict[str, str] = {
    "wallclock": "real seconds: fast-path kernels vs. the pure-Python "
                 "reference, observationally identical",
    "shards": "document-partitioned scaling and invariance",
    "serve": "concurrent batch query service under traffic",
    "saturate": "overload control: deterministic shedding past capacity",
    "failover": "replication: kills invisible, re-replication "
                "byte-identical, mid-traffic 2->4 split",
    "prune": "dynamic pruning: same top-k, fewer documents scored",
    "ingest": "live ingest: every epoch bit-identical to a "
              "stop-the-world rebuild",
    "termcache": "term cache: bit-identical to cache-off, "
                 "zero stale rankings",
    "chaos": "fault-tolerant serving under seeded fault injection",
}


class OperatorError(Exception):
    """The gate was invoked wrongly: one line on stderr, exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise OperatorError(message)


@dataclass(frozen=True)
class Option:
    """One gate-specific flag, passed on as the keyword ``dest``."""

    flag: str
    dest: str
    default: Any
    help: str
    type: Callable[[str], Any] = int
    nargs: Optional[str] = None


def recorded_violations(profile_name: str, cell: dict) -> List[str]:
    """The violations a failed cell recorded about itself."""
    if cell.get("ok", False):
        return []
    return [
        f"{profile_name}: {violation}"
        for violation in cell.get("violations", ["violations recorded"])
    ]


def compare_exact(profile_name: str, cell: dict, base_cell: dict) -> List[str]:
    """Drift of a deterministic cell: any difference is a behavior change.

    Every key but the verdict pair is compared by equality; the
    verdict is reported as the violations themselves.
    """
    failures = recorded_violations(profile_name, cell)
    for key in dict.fromkeys([*base_cell, *cell]):
        if key in ("violations", "ok"):
            continue
        if cell.get(key) != base_cell.get(key):
            failures.append(
                f"{profile_name}: {key} drifted from "
                f"{base_cell.get(key)!r} to {cell.get(key)!r}"
            )
    return failures


def _config_header(config: str, **_options) -> dict:
    return {"config": config}


def _cell_ok(cell: dict) -> bool:
    return cell["ok"]


@dataclass(frozen=True)
class Gate:
    """What one gate measures and how its cells are judged."""

    name: str
    #: The ``description`` field of the report.
    description: str
    default_config: str
    #: ``(profile_name, config_name, **options) -> cell``.
    bench_profile: Callable[..., Any]
    print_cell: Callable[[str, Any], None]
    #: Flags of the measurement, passed to ``bench_profile`` and ``header``.
    options: Tuple[Option, ...] = ()
    #: Flags of the ``--check`` comparison, passed to ``compare_cell``.
    check_options: Tuple[Option, ...] = ()
    #: ``(profile_name, cell, base_cell, **check_options) -> failures``.
    compare_cell: Callable[..., List[str]] = compare_exact
    #: Report keys between ``description`` and ``profiles``.
    header: Callable[..., dict] = _config_header
    cell_ok: Callable[[Any], bool] = _cell_ok
    #: Whether the report ends in a top-level ``ok`` (wallclock's does not).
    summary_ok: bool = True
    #: Whether ``BENCH_<name>.json`` is committed and ``--check`` offered.
    has_baseline: bool = True

    @property
    def baseline_path(self) -> Path:
        return Path(f"BENCH_{self.name}.json")


def load_gate(name: str) -> Gate:
    return importlib.import_module(f"{__package__}.{name}").GATE


def _parser(gate: Gate) -> argparse.ArgumentParser:
    parser = _Parser(
        prog=f"repro.bench {gate.name}", description=gate.description
    )
    parser.add_argument(
        "--profile", action="append", dest="profiles", choices=PROFILE_ORDER,
        help="collection profile to run (repeatable; default: all four)",
    )
    parser.add_argument("--config", default=gate.default_config)
    for option in gate.options + gate.check_options:
        parser.add_argument(
            option.flag, dest=option.dest, type=option.type,
            nargs=option.nargs, default=option.default, help=option.help,
        )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here"
        + (
            f" (default ./{gate.baseline_path} on a full run; a run "
            "restricted by --profile or gated by --check writes only here)"
            if gate.has_baseline else ""
        ),
    )
    if gate.has_baseline:
        parser.add_argument(
            "--check", action="store_true",
            help="compare against the baseline instead of rewriting it; "
            "exit 1 on drift",
        )
        parser.add_argument(
            "--baseline", type=Path, default=gate.baseline_path,
            help="baseline JSON to gate against (with --check)",
        )
    else:
        parser.set_defaults(check=False)
    return parser


def load_baseline(gate: Gate, path: Path, profiles: Sequence[str]) -> dict:
    """The baseline report at ``path``, restricted to ``profiles``.

    A run gates only the profiles it executed, and the baseline must
    know every one of them.
    """
    try:
        baseline = json.loads(path.read_text())
    except FileNotFoundError:
        raise OperatorError(
            f"no baseline at {path}; run without --check first"
        ) from None
    except OSError as error:
        raise OperatorError(
            f"cannot read baseline {path}: {error.strerror or error}"
        ) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise OperatorError(
            f"baseline {path} is not valid JSON ({error}); "
            "regenerate it by running without --check"
        ) from None
    if not isinstance(baseline, dict) or not isinstance(
        baseline.get("profiles"), dict
    ):
        raise OperatorError(
            f"baseline {path} is not a {gate.name} report "
            "(no 'profiles' key); regenerate it by running without --check"
        )
    missing = [name for name in profiles if name not in baseline["profiles"]]
    if missing:
        raise OperatorError(
            f"baseline {path} lacks profile(s) {', '.join(missing)}; "
            "regenerate it by running without --check"
        )
    return dict(
        baseline,
        profiles={name: baseline["profiles"][name] for name in profiles},
    )


def compare_reports(
    gate: Gate, current: dict, baseline: dict, **check_options
) -> List[str]:
    """Failures of ``current`` against ``baseline`` (empty = pass)."""
    failures: List[str] = []
    for profile_name, base_cell in baseline["profiles"].items():
        cell = current["profiles"].get(profile_name)
        if cell is None:
            failures.append(f"{profile_name}: missing from the current run")
            continue
        failures.extend(
            gate.compare_cell(profile_name, cell, base_cell, **check_options)
        )
    return failures


def _run(gate: Gate, argv: Sequence[str]) -> int:
    args = _parser(gate).parse_args(argv)
    profiles = args.profiles or list(PROFILE_ORDER)
    options = {o.dest: getattr(args, o.dest) for o in gate.options}
    check_options = {o.dest: getattr(args, o.dest) for o in gate.check_options}
    # A bad baseline is diagnosed before the minutes-long run, not after.
    baseline = (
        load_baseline(gate, args.baseline, profiles) if args.check else None
    )

    report = {
        "benchmark": gate.name,
        "description": gate.description,
        **gate.header(args.config, **options),
        "profiles": {},
    }
    passed = True
    for profile_name in profiles:
        cell = gate.bench_profile(profile_name, args.config, **options)
        report["profiles"][profile_name] = cell
        gate.print_cell(profile_name, cell)
        passed = passed and gate.cell_ok(cell)
    if gate.summary_ok:
        report["ok"] = passed

    out_path = args.out
    if (
        out_path is None and gate.has_baseline
        and not args.check and not args.profiles
    ):
        out_path = gate.baseline_path
    if out_path is not None:
        out_path.write_text(json.dumps(report, indent=2) + "\n")

    failures = (
        compare_reports(gate, report, baseline, **check_options)
        if baseline is not None else []
    )
    if failures or not passed:
        print(f"\n{gate.name.upper()} GATE FAILED" + (":" if failures else ""))
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\n{gate.name} gate passed "
        + ("(every profile within its baseline)" if args.check
           else "(no contract violated)")
    )
    return 0


def run(gate: Gate, argv: Sequence[str]) -> int:
    """Run ``gate`` with command-line ``argv``; returns the exit status."""
    try:
        return _run(gate, argv)
    except OperatorError as error:
        print(f"repro.bench {gate.name}: {error}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.bench <gate> [flags]``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in GATES:
        print(
            f"usage: python -m repro.bench {{{','.join(GATES)}}} [flags]"
            + (f" — unknown gate {argv[0]!r}" if argv else ""),
            file=sys.stderr,
        )
        return 2
    return run(load_gate(argv[0]), argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
