#!/usr/bin/env bash
# Run every workload for one seed, each for BENCHMARK.json's run_seconds:
# first with tracing off (end-to-end metrics), then with tracing on
# (per-layer metrics).  Each run is its own process, so peak_rss_mb belongs
# to one workload.
#
#   bash bench/all.sh [seed]
set -euo pipefail
seed=${1:-0}
here=$(dirname "$0")
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$here/../BENCHMARK.json")
for trace in 0 1; do
  for workload in validate estimate-local certify-large; do
    python3 "$here/run.py" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace"
  done
done
