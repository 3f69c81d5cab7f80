#!/bin/sh
# Run a regression gate or the paper benchmark suite.
#
#   scripts/bench.sh <gate> [flags]   # python -m repro.bench <gate> [flags]:
#                                     # wallclock shards serve saturate
#                                     # failover prune ingest termcache chaos.
#                                     # Flags, baseline files and exit status:
#                                     # README "Regression gates".
#   scripts/bench.sh --check [flags]  # the wall-clock regression gate
#                                     # (= wallclock --check)
#   scripts/bench.sh [all]            # every benchmarks/bench_*.py (tables,
#                                     # figures, ablations, tier2 wall-clock)
#   scripts/bench.sh <name>           # one benchmarks/bench_<name>.py
#
# Tier-1 tests (`python -m pytest`) never run these: pytest's testpaths
# points at tests/, and the wall-clock bench is additionally marked tier2.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

case "${1:-all}" in
    all)
        python -m pytest benchmarks -q
        ;;
    --check)
        shift
        python -m repro.bench wallclock --check "$@"
        ;;
    *)
        # A gate (a module of src/repro/bench) wins over a same-named
        # benchmarks/bench_<name>.py — wallclock is both; anything else
        # is the driver's to reject with its one-line error and exit 2.
        if [ ! -f "src/repro/bench/$1.py" ] && [ -f "benchmarks/bench_$1.py" ]; then
            python -m pytest "benchmarks/bench_$1.py" -q
        else
            python -m repro.bench "$@"
        fi
        ;;
esac
