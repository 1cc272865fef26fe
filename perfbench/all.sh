#!/usr/bin/env bash
# Run every workload once and print each one's summary and result line.
#
#   bash perfbench/all.sh [seed] [seconds] [trace]
#
# Run from the root of a floqlind checkout; defaults: seed 1, 28 s, trace 0.
set -euo pipefail
seed=${1:-1}
seconds=${2:-28}
trace=${3:-0}
for workload in tls-certify lab-trajectory qudit-d8 cli-tables; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace"
done
