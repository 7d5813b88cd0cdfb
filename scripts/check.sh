#!/bin/sh
# Pre-PR gate: everything a change must pass before it is committed.
# Run from the repository root (directly or as `make check`).
set -eu

cd "$(dirname "$0")/.."

# The bench smokes below write their 1x JSON here and the gates read it
# back, so a gate run never overwrites the committed BENCH_*.json record.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/cubevet ./..."
go run ./cmd/cubevet ./...

echo "==> go test ./..."
go test ./...

# Fuzz corpora in regression mode: replay the checked-in seeds (no fuzzing).
echo "==> go test -run '^Fuzz' (fuzz seed regression)"
go test -run '^Fuzz' ./internal/plan/ ./internal/cube/ ./internal/service/ ./internal/remap/ .

# Smoke the fault sweep: robustness table on a 6-cube (survival under k
# random link failures per path system).
echo "==> experiments -exp fault-sweep (6-cube smoke)"
go run ./cmd/experiments -exp fault-sweep >/dev/null

# Smoke the recovery sweep: mid-run link kills across algorithms, every
# failed run checkpointed, resumed and verified element-exact.
echo "==> experiments -exp recovery-sweep (6-cube smoke)"
go run ./cmd/experiments -exp recovery-sweep >/dev/null

# Smoke the chaos sweep: k node crash-stops mid-run on both backends, every
# node-down failure recovered onto the survivors and verified element-exact.
# Gate on zero failed cells — crash-stop survival is an acceptance invariant.
echo "==> experiments -exp chaos-sweep (6-cube, both backends)"
go run ./cmd/experiments -exp chaos-sweep | awk '
	/^(SPT|DPT|MPT) / {
		rows++
		if ($6 + 0 != 0) {
			printf "check: chaos-sweep cell %s/%s k=%s has %s failed run(s)\n", $1, $2, $3, $6 > "/dev/stderr"
			bad = 1
		}
	}
	END {
		if (rows == 0) { print "check: chaos-sweep produced no rows" > "/dev/stderr"; exit 1 }
		if (bad) exit 1
		printf "check: chaos-sweep %d cells, zero failed runs\n", rows
	}'

# Resume determinism: the checkpoint/resume acceptance scenarios replayed
# twice — the resumed distribution must stay bit-identical to the unfaulted
# run on every repetition (plan-cache state must not leak into recovery).
echo "==> go test -run resume scenarios -count=2"
go test -run 'TestMPTResumeAfterMidRunLinkKills|TestExchangeResumeAfterMidRunKill|TestDeadlineAbortsAndResumes' -count=2 .

# Faulted soak: combined permanent + flaky faults on an 8-cube, replayed
# for determinism (part of the non-short suite; run explicitly here).
echo "==> go test -run TestSoakFaultedTranspose"
go test -run 'TestSoakFaultedTranspose' .

# Smoke the plan-cache benchmark pair (full measurement: `make bench`).
echo "==> go test -bench plan split -benchtime=1x"
go test -run '^$' -bench 'BenchmarkTransposeOneShot$|BenchmarkTransposeCompiled$' -benchtime=1x .

# Connection Machine scale smoke: a full 12-cube (4096 node) all-to-all,
# sharded vs serial, byte-identical Stats. The test skips itself under
# -short (so the race suite stays inside its timeout); run it loud here.
echo "==> go test -run TestCube12ShardedSmoke (12-cube sharded smoke)"
go test -run 'TestCube12ShardedSmoke' -count=1 ./internal/simnet/

# Engine bench smoke: the BENCH_engine.json rows (scheduler pair, sharded
# pair, 16-cube scale row, crossover rows, sweep wall-clock) into a temp
# file, gated on the indexed scheduler not regressing below the linear-scan
# reference and the sharded scheduler (12-cube, P=2) not regressing below
# the serial one.
echo "==> scripts/bench_engine.sh (BENCH_COUNT=1x smoke)"
BENCH_COUNT=1x CUBE16_COUNT=1x ./scripts/bench_engine.sh "$smoke/engine.json"
awk -F'[:,]' '/"scheduler_speedup"/ {
	if ($2 + 0 < 1.0) {
		printf "check: scheduler speedup %.2f below 1.0x — indexed scheduler regressed\n", $2 > "/dev/stderr"
		exit 1
	}
	printf "check: scheduler speedup %.2fx (>= 1.0x gate)\n", $2
}' "$smoke/engine.json"
awk -F'[:,]' '/"sharded_speedup"/ {
	if ($2 + 0 < 1.0) {
		printf "check: sharded speedup %.2f below 1.0x — epoch scheduler regressed\n", $2 > "/dev/stderr"
		exit 1
	}
	printf "check: sharded speedup %.2fx (>= 1.0x gate)\n", $2
}' "$smoke/engine.json"
awk '/"cube16_ns_per_op"/ { c16 = 1 } /"bytes_per_node"/ { bpn = 1 } /"cm_crossover"/ { xo = 1 }
END {
	if (!c16 || !bpn || !xo) {
		print "check: engine bench missing 16-cube scale row or crossover rows" > "/dev/stderr"
		exit 1
	}
	print "check: 16-cube row, bytes_per_node and cm_crossover rows present"
}' "$smoke/engine.json"
awk -F'[:,]' '/"checkpoint_overhead_pct"/ {
	if ($2 + 0 >= 3.0) {
		printf "check: checkpoint overhead %.2f%% at or above the 3%% budget\n", $2 > "/dev/stderr"
		exit 1
	}
	printf "check: checkpoint overhead %.2f%% (< 3%% gate)\n", $2
}' "$smoke/engine.json"

# Smoke the service sweep: the multi-tenant scheduler under open-loop
# Poisson load at three offered rates, every job verified element-exact.
echo "==> experiments -exp service-sweep (6-cube smoke)"
go run ./cmd/experiments -exp service-sweep >/dev/null

# Service bench: the BENCH_service.json rows (mixed-burst throughput and
# latency percentiles, plus the identical-request batching pair) into a
# temp file, gated on batching actually beating the unbatched control —
# the core throughput claim of the multi-tenant scheduler.
echo "==> scripts/bench_service.sh (BENCH_COUNT=1x smoke)"
BENCH_COUNT=1x ./scripts/bench_service.sh "$smoke/service.json"
awk -F'[:,]' '/"batched_speedup"/ {
	if ($2 + 0 <= 1.0) {
		printf "check: batching speedup %.2fx not above 1.0x — batched rounds regressed\n", $2 > "/dev/stderr"
		exit 1
	}
	printf "check: batching speedup %.2fx (> 1.0x gate)\n", $2
}' "$smoke/service.json"

# Backend parity smoke: the same compiled plans replayed on the simnet
# simulation and the livenet goroutine transport must agree element-exactly
# and on logical stats, including the checkpoint/resume round-trip.
echo "==> go test -run TestBackendParity -short (backend parity smoke)"
go test -run 'TestBackendParity' -short -count=1 .

# Fabric bench: the BENCH_fabric.json rows (simnet host + virtual time vs
# livenet wall-clock on the compiled 8-cube SBnT plan) into a temp file,
# gated on the comparison being produced.
echo "==> scripts/bench_fabric.sh (BENCH_COUNT=1x smoke)"
BENCH_COUNT=1x ./scripts/bench_fabric.sh "$smoke/fabric.json"
test -s "$smoke/fabric.json" || {
	echo "check: fabric bench produced no output" >&2
	exit 1
}

# -short skips the exper figure sweeps, which exceed the per-package test
# timeout under the race detector; they exercise no concurrency the short
# suite doesn't. `make race` runs the full sweep with a raised timeout.
echo "==> go test -race -short ./... (SIMNET_DEBUG=1)"
SIMNET_DEBUG=1 go test -race -short ./...

echo "check: all gates passed"
