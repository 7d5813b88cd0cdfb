#!/bin/sh
# Benchmark the fabric backends against each other: one compiled 8-cube
# SBnT all-to-all plan replayed on the deterministic simulation ("simnet")
# and on the real goroutine-per-node transport ("livenet"). The simnet row
# separates host time (how long simulating takes) from virtual time (what
# the machine model predicts the transpose costs); the livenet row is a
# real 256-goroutine transpose measured wall-clock. Emits BENCH_fabric.json
# in the repository root.
#
# Usage: scripts/bench_fabric.sh [out.json] (default BENCH_fabric.json).
set -eu

cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-10x}"
OUT="${1:-BENCH_fabric.json}"

raw=$(go test -run '^$' -bench 'BenchmarkFabricSimnet8Cube$|BenchmarkFabricLivenet8Cube$' \
	-benchtime "$COUNT" .)
echo "$raw"

echo "$raw" | awk -v out="$OUT" '
	/^BenchmarkFabricSimnet8Cube/  { sim = $3; sim_stats = $5 }
	/^BenchmarkFabricLivenet8Cube/ { live = $3; live_stats = $5 }
	END {
		if (sim == "" || live == "") {
			print "bench_fabric: missing benchmark output" > "/dev/stderr"
			exit 1
		}
		printf "{\n" > out
		printf "  \"benchmark\": \"8-cube SBnT all-to-all transpose (p=q=8, iPSC n-port, compiled plan)\",\n" >> out
		printf "  \"simnet_host_ns_per_op\": %s,\n", sim >> out
		printf "  \"simnet_virtual_time_us\": %s,\n", sim_stats >> out
		printf "  \"livenet_wall_ns_per_op\": %s,\n", live >> out
		printf "  \"livenet_elapsed_us\": %s,\n", live_stats >> out
		printf "  \"livenet_wall_vs_simnet_host\": %.2f\n", live / sim >> out
		printf "}\n" >> out
	}
'
echo "wrote $OUT:"
cat "$OUT"
