#!/bin/sh
# The chaos gate: scripts/chaos.sh [--seed N] [--sweep K] [--profile P]
# is `python -m repro.bench chaos` with the same flags (README
# "Regression gates" lists what it asserts).
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m repro.bench chaos "$@"
