#!/bin/sh
# Benchmark the simnet engine hot path: the indexed ready-queue scheduler
# against the retained linear-scan reference on the repeated 8-cube exchange
# transpose (pooled payloads, -benchmem), the sharded epoch scheduler (two
# workers) against the serial indexed one on a 12-cube all-to-all, the
# Connection Machine
# scale 16-cube (65,536 node) SBnT all-to-all with its retained bytes/node
# footprint, plus the wall-clock of the full experiment sweep
# (`go run ./cmd/experiments -all`) and the Section 9 CM crossover rows.
#
# Usage: scripts/bench_engine.sh [out.json]
# Writes BENCH_engine.json in the repository root unless another output
# path is given (check.sh passes a temporary file, so its smoke run never
# overwrites the committed record).
#
# sweep_baseline_s is the measured wall-clock of the serial sweep at the
# scheduler's introduction (linear scan, no pooling, serial harness) on the
# reference machine; regenerating the file re-times only the current sweep.
#
# Environment:
#   BENCH_COUNT     -benchtime for the scheduler/sharded pairs (default 10x)
#   CUBE16_COUNT    -benchtime for the 16-cube benchmark (default 2x; it
#                   runs ~5 s per iteration)
#   OVERHEAD_COUNT  -benchtime for the checkpoint-overhead pair (default 40x)
#   ENGINE_PROFILE  when set to a directory, also writes cube16_cpu.pprof and
#                   cube16_mem.pprof profiles of the 16-cube benchmark there
set -eu

cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-10x}"
CUBE16="${CUBE16_COUNT:-2x}"
OUT="${1:-BENCH_engine.json}"
BASELINE_S=61.4

raw=$(go test -run '^$' -bench 'BenchmarkEngineTransposeIndexed$|BenchmarkEngineTransposeReference$' \
	-benchmem -benchtime "$COUNT" ./internal/simnet/)
echo "$raw"

echo "==> sharded-vs-serial pair (12-cube all-to-all, P=2, $COUNT)"
shraw=$(go test -run '^$' -bench 'BenchmarkEngineCube12Sharded$|BenchmarkEngineCube12Serial$' \
	-benchmem -benchtime "$COUNT" ./internal/simnet/)
echo "$shraw"

echo "==> 16-cube SBnT all-to-all (65,536 nodes, $CUBE16)"
PROF_ARGS=""
if [ -n "${ENGINE_PROFILE:-}" ]; then
	mkdir -p "$ENGINE_PROFILE"
	PROF_ARGS="-cpuprofile $ENGINE_PROFILE/cube16_cpu.pprof -memprofile $ENGINE_PROFILE/cube16_mem.pprof"
	echo "    (profiles -> $ENGINE_PROFILE/cube16_{cpu,mem}.pprof)"
fi
c16raw=$(go test -run '^$' -bench 'BenchmarkEngineCube16SBnT$' \
	-benchmem -benchtime "$CUBE16" $PROF_ARGS ./internal/simnet/)
echo "$c16raw"

# Checkpoint overhead: the production (checkpointed, checksummed) exchange
# executor against the retained pre-checkpointing baseline on the unfaulted
# repeated 8-cube exchange. BenchmarkExchangePair times the two arms as
# back-to-back pairs inside one loop and reports the median per-pair ratio
# as overhead-pct — adjacent-in-time pairs cancel scheduler/turbo/GC drift
# that phase-ordered separate runs cannot, so the few-percent delta is
# measurable.
echo "==> checkpoint-overhead pair (alternating, median of ${OVERHEAD_COUNT:-40x})"
ovraw=$(go test -run '^$' -bench 'BenchmarkExchangePair$' \
	-benchtime "${OVERHEAD_COUNT:-40x}" ./internal/core/)
echo "$ovraw"

echo "==> timing cmd/experiments -all"
t0=$(date +%s.%N)
go run ./cmd/experiments -all >/dev/null
t1=$(date +%s.%N)
sweep=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.1f", b - a }')
echo "sweep wall-clock: ${sweep}s (baseline ${BASELINE_S}s)"

echo "==> cm-crossover rows (Section 9 on the CM)"
xover=$(go run ./cmd/experiments -exp cm-crossover -format csv)

printf '%s\n%s\n%s\n%s\n@@CROSSOVER@@\n%s\n' "$raw" "$shraw" "$c16raw" "$ovraw" "$xover" | \
awk -v out="$OUT" -v sweep="$sweep" -v base="$BASELINE_S" '
	/^BenchmarkEngineTransposeIndexed/   { idx = $3; idx_allocs = $7 }
	/^BenchmarkEngineTransposeReference/ { ref = $3; ref_allocs = $7 }
	/^BenchmarkEngineCube12Sharded/      { shard = $3 }
	/^BenchmarkEngineCube12Serial/       { serial = $3 }
	/^BenchmarkEngineCube16SBnT/ {
		c16 = $3
		for (i = 2; i <= NF; i++) if ($i == "bytes/node") bpn = $(i - 1)
	}
	/^BenchmarkExchangePair/ {
		for (i = 2; i <= NF; i++) {
			if ($i == "ckpt-ns") ckpt = $(i - 1)
			if ($i == "base-ns") bl = $(i - 1)
			if ($i == "overhead-pct") ov = $(i - 1)
		}
	}
	/^@@CROSSOVER@@$/ { inx = 1; next }
	inx {
		if (++xline == 1) next # skip the csv header
		if (NF == 0) next
		nrows++
		split($0, c, ",")
		rows[nrows] = sprintf("    {\"n\": %s, \"procs\": %s, \"model_1d_ms\": %s, \"model_2d_ms\": %s, \"sim_1d_ms\": \"%s\", \"sim_2d_ms\": \"%s\", \"winner_model\": \"%s\", \"winner_sim\": \"%s\"}",
			c[1], c[2], c[4], c[5], c[6], c[7], c[8], c[9])
	}
	END {
		if (idx == "" || ref == "" || shard == "" || serial == "" || c16 == "" || bpn == "" ||
			ckpt == "" || bl == "" || ov == "" || nrows == 0) {
			print "bench_engine: missing benchmark output" > "/dev/stderr"
			exit 1
		}
		printf "{\n" > out
		printf "  \"benchmark\": \"repeated 8-cube exchange transpose (256 nodes, 4 passes, pooled payloads, iPSC)\",\n" >> out
		printf "  \"indexed_ns_per_op\": %s,\n", idx >> out
		printf "  \"indexed_allocs_per_op\": %s,\n", idx_allocs >> out
		printf "  \"reference_ns_per_op\": %s,\n", ref >> out
		printf "  \"reference_allocs_per_op\": %s,\n", ref_allocs >> out
		printf "  \"scheduler_speedup\": %.2f,\n", ref / idx >> out
		printf "  \"cube12_sharded_ns_per_op\": %s,\n", shard >> out
		printf "  \"cube12_serial_ns_per_op\": %s,\n", serial >> out
		printf "  \"sharded_speedup\": %.2f,\n", serial / shard >> out
		printf "  \"cube16_ns_per_op\": %s,\n", c16 >> out
		printf "  \"bytes_per_node\": %s,\n", bpn >> out
		printf "  \"checkpointed_ns_per_op\": %d,\n", ckpt >> out
		printf "  \"baseline_ns_per_op\": %d,\n", bl >> out
		printf "  \"checkpoint_overhead_pct\": %.2f,\n", ov >> out
		printf "  \"sweep_wallclock_s\": %s,\n", sweep >> out
		printf "  \"sweep_baseline_s\": %s,\n", base >> out
		printf "  \"sweep_speedup\": %.2f,\n", base / sweep >> out
		printf "  \"cm_crossover\": [\n" >> out
		for (i = 1; i <= nrows; i++)
			printf "%s%s\n", rows[i], (i < nrows ? "," : "") >> out
		printf "  ]\n" >> out
		printf "}\n" >> out
	}
'
echo "wrote $OUT:"
cat "$OUT"
