#!/usr/bin/env bash
# Records one set of benchmark runs: every workload at seeds 1..RUNS, one
# untraced run each, appended to OUT as JSON lines of
# {"workload", "seed", "result"} that `bench -compare` reads. Run from the
# repository root:
#
#   bash bench/sets.sh bench/baseline/set1.jsonl [RUNS]
#
# RUNS defaults to 10; each run measures for BENCHMARK.json's run_seconds.
set -euo pipefail

out=$1
runs=${2:-10}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$(dirname "$out")"
for wl in campaign sweep snapshot replay; do
	for seed in $(seq 1 "$runs"); do
		res=$(bash bench/run.sh --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%d,"result":%s}\n' "$wl" "$seed" "$res" >>"$out"
	done
done
