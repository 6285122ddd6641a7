#!/usr/bin/env bash
# A/A check: runs the benchmark twice over on one commit — two interleaved
# sets, each of RUNS runs per workload with seeds 1..RUNS, as the acceptance
# rule does — and prints, per workload and end-to-end metric, both medians,
# both quartile spreads and their disagreement beside the metric's bound.
# Runs of one seed must simulate exactly the same thing: every sim_* value
# and the sim_digest are compared bit for bit. Exits non-zero on any breach.
#
#   bench/aa.sh [RUNS]          default 10; prints markdown (bench/NOISE.md)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
runs="${1:-10}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="tree-churn flat-alltoall sessions chaos-matrix"
dir=bench/out/aa
mkdir -p "$dir"
: >"$dir/A.jsonl"
: >"$dir/B.jsonl"

one() { # set workload seed
	local log
	log="$(bash bench/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0)"
	[ -s "$dir/machine" ] || grep '^# machine' <<<"$log" >"$dir/machine"
	echo "$2 $3 $(sed -n 's/^sim_digest //p' <<<"$log") $(tail -n 1 <<<"$log")" >>"$dir/$1.jsonl"
}

: >"$dir/machine"
for seed in $(seq 1 "$runs"); do
	for w in $workloads; do
		# alternate which set goes first, so neither always runs on a warmer box
		if [ $((seed % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
		for set in $order; do
			one "$set" "$w" "$seed" >&2
			echo "aa: set $set $w seed $seed done" >&2
		done
	done
done

echo "A/A of two interleaved sets of $runs runs per workload (seeds 1..$runs, --seconds $seconds)."
echo
echo '`'"$(sed 's/^# //' "$dir/machine")"'`'
echo
echo "Spread is (Q3 - Q1) / median of the set's values, quartiles as Python's statistics.quantiles(n=4);"
echo "\"B vs A\" is the relative difference of the medians. setup_s is held to its bound on the medians only."
echo
bench/out/tampperf --compare "$dir/A.jsonl,$dir/B.jsonl"
