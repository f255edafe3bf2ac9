#!/bin/sh
# Runs every workload, untraced and then traced, for one seed:
#     sh perfbench/run_all.sh [SEED]
set -e
seed=${1:-0}
cd "$(dirname "$0")/.."
for workload in build-k3 sweep-k2 certify; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 25 --trace "$trace"
  done
done
