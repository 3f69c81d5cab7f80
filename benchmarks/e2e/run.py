#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, two clocks, per-layer trace.

    python3 benchmarks/e2e/run.py --workload taat-cold [--seed 12] [--seconds 12]
    python3 benchmarks/e2e/run.py --workload shard-repeat --trace
    python3 benchmarks/e2e/run.py --selfcheck [--workload ingest-mixed]
    python3 benchmarks/e2e/run.py --regen-golden

Drives the public API only (``prepare_collection`` -> ``materialize`` ->
``QueryService.process / ingest / compact``), prints every metric by name
with its unit, verifies every served ranking, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  See README.md here.
"""

import argparse
import contextlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from metrics import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        regen_golden: bool = False) -> dict:
    """One run of one workload: the result object the last line prints."""
    workload = WORKLOADS[workload_name]
    observer = tracing.PassObserver() if trace else None
    with harness.one_cpu() if workload.shards else contextlib.nullcontext():
        m = harness.measure(workload, seed, seconds, observer, log=log)
    if trace:
        values = tracing.per_layer(m, observer)
        table = PER_LAYER
        path = HERE / "out" / f"{workload.name}.trace.json"
        tracing.write_trace(path, m, observer, values)
        log(f"{len(observer.tracer.spans)} spans -> {path}")
    else:
        values = harness.end_to_end(m)
        table = END_TO_END
    attempted, failed = verify.verify(m)
    if regen_golden and not failed:
        log(f"golden digests -> {verify.write_golden(m)}")
    stale = verify.golden_mismatches(m)
    if stale:
        log(f"golden digest mismatch at epoch(s) {', '.join(stale)}")
    return {
        "correct": failed == 0 and not stale,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            row.name: {"value": values[row.name], "unit": row.unit} for row in table
        },
        "notes": {
            "passes": len(m.passes),
            "calls_per_pass": len(m.calls),
            "requests_per_pass": m.requests,
            "real_pass_spread": values.get("real_pass_spread", m.real_pass_spread),
            "error_rate": failed / attempted,
        },
    }


def print_table(workload_name: str, seed: int, result: dict) -> None:
    notes = result["notes"]
    print(
        f"{workload_name}  seed {seed}  {notes['passes']} passes x "
        f"{notes['calls_per_pass']} calls ({notes['requests_per_pass']} requests)  "
        f"real_pass_spread {notes['real_pass_spread']:.3f}  "
        f"error_rate {notes['error_rate']:.4f}"
    )
    for name, cell in result["metrics"].items():
        print(f"  {name:<44} {cell['value']:>16.6f} {cell['unit']}")


def emit(result: dict) -> None:
    """The contract's last line: exactly these four keys."""
    print(json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    ))


def run_isolated(name: str, seed: int, seconds: float, *extra: str) -> dict:
    """One run in a process of its own (as the driver runs it): peak RSS
    and heap state then belong to that run alone."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), *extra],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name}: run exited {done.returncode} without a result")
    return json.loads(lines[-1])


def selfcheck(names, seed: int, seconds: float) -> int:
    """A/A: two full sets back to back; fail if any end-to-end metric
    moved by more than its own bound (exact ones: at all)."""
    status = 0
    for name in names:
        first = run_isolated(name, seed, seconds)
        second = run_isolated(name, seed, seconds)
        print(f"{name}  seed {seed}  A/A")
        for row in END_TO_END:
            a = first["metrics"][row.name]["value"]
            b = second["metrics"][row.name]["value"]
            relative = abs(b - a) / a
            if row.exact:
                ok, limit = a == b, "exact"
            else:
                ok, limit = relative <= row.bound, f"{row.bound:.2f}"
            print(
                f"  {row.name:<28} {a:>14.6f} {b:>14.6f} {row.unit:<7} "
                f"diff {relative:7.4f}  bound {limit:<5} {'ok' if ok else 'FAIL'}"
            )
            status |= not ok
        for label, result in (("first", first), ("second", second)):
            if not result["correct"]:
                print(f"  {label} set: {result['failed']} failed requests")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured replay time per run (more passes, not more calls)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a traced pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden/<workload>.seed<seed>.json")
    args = parser.parse_args(argv)
    harness.pin_malloc()
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.selfcheck:
        return selfcheck(names, args.seed, args.seconds)
    if not args.workload:
        if not args.regen_golden:
            parser.error("--workload is required")
        return int(not all(
            run_isolated(name, args.seed, args.seconds, "--regen-golden")["correct"]
            for name in names
        ))
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.regen_golden
    )
    print_table(args.workload, args.seed, result)
    emit(result)
    return int(not result["correct"])


if __name__ == "__main__":
    sys.exit(main())
