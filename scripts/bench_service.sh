#!/bin/sh
# Benchmark the multi-tenant transpose service: a mixed concurrent burst
# through one shared 6-cube fabric (throughput + latency percentiles), and
# the identical-request burst with batching on vs off (the batching
# speedup). Emits BENCH_service.json in the repository root.
#
# Usage: scripts/bench_service.sh [out.json] (default BENCH_service.json).
set -eu

cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-10x}"
OUT="${1:-BENCH_service.json}"

raw=$(go test -run '^$' \
	-bench 'BenchmarkServiceSweep$|BenchmarkServiceBatchedIdentical$|BenchmarkServiceUnbatchedIdentical$' \
	-benchtime "$COUNT" .)
echo "$raw"

echo "$raw" | awk -v out="$OUT" '
	/^BenchmarkServiceSweep/             { jobs = $5; p50 = $7; p95 = $9; p99 = $11 }
	/^BenchmarkServiceBatchedIdentical/  { batched = $3 }
	/^BenchmarkServiceUnbatchedIdentical/{ unbatched = $3 }
	END {
		if (jobs == "" || batched == "" || unbatched == "") {
			print "bench_service: missing benchmark output" > "/dev/stderr"
			exit 1
		}
		printf "{\n" > out
		printf "  \"benchmark\": \"multi-tenant service, 6-cube shared fabric (mixed burst + 16 identical tenants)\",\n" >> out
		printf "  \"jobs_per_sec\": %s,\n", jobs >> out
		printf "  \"p50_us\": %s,\n", p50 >> out
		printf "  \"p95_us\": %s,\n", p95 >> out
		printf "  \"p99_us\": %s,\n", p99 >> out
		printf "  \"batched_ns_per_op\": %s,\n", batched >> out
		printf "  \"unbatched_ns_per_op\": %s,\n", unbatched >> out
		printf "  \"batched_speedup\": %.2f\n", unbatched / batched >> out
		printf "}\n" >> out
	}
'
echo "wrote $OUT:"
cat "$OUT"
