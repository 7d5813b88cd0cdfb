package simnet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// This file is the shard-invariance property suite: the sharded
// epoch-parallel scheduler (shard.go) must produce byte-identical traces,
// Stats, link loads and errors to the serial schedulers for every worker
// count P ∈ {1, 2, 4, GOMAXPROCS} — across randomized scripts, both port
// models, fault plans and deadline aborts. It extends the PR 4
// scheduler-equivalence suite (sched_test.go), reusing its script
// generator, runner and comparator.

// shardCounts returns the worker counts the invariance properties sweep.
func shardCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

func TestShardInvarianceProperty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params machine.Params
	}{
		{"one-port", machine.IPSC()},
		{"n-port", machine.IPSCNPort()},
		{"cm-pipelined", machine.ConnectionMachine()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed * 37))
				n := 2 + rng.Intn(4) // 4 to 32 nodes
				script := genScript(rng, n, 6+rng.Intn(20))
				ref := runScriptCfg(t, n, tc.params, script, nil, schedConfig{reference: true, trace: true})
				if len(ref.events) == 0 {
					t.Fatalf("seed %d produced an empty trace; property vacuous", seed)
				}
				for _, p := range shardCounts() {
					got := runScriptCfg(t, n, tc.params, script, nil, schedConfig{shards: p, trace: true})
					t.Run(fmt.Sprintf("seed%d/P%d", seed, p), func(t *testing.T) {
						checkEquivalent(t, ref, got)
					})
				}
			}
		})
	}
}

// TestShardInvarianceFast repeats the property in fast mode (no tracer):
// the sharded engine then uses per-shard accumulators instead of commit
// records, and Stats and link loads must still be byte-identical.
func TestShardInvarianceFast(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 101))
		n := 2 + rng.Intn(4)
		script := genScript(rng, n, 6+rng.Intn(16))
		ref := runScriptCfg(t, n, machine.IPSCNPort(), script, nil, schedConfig{reference: true})
		for _, p := range shardCounts() {
			got := runScriptCfg(t, n, machine.IPSCNPort(), script, nil, schedConfig{shards: p})
			if got.err != ref.err {
				t.Fatalf("seed %d P=%d: errors differ: %q vs %q", seed, p, ref.err, got.err)
			}
			if got.stats != ref.stats {
				t.Fatalf("seed %d P=%d: stats differ:\n  serial:  %+v\n  sharded: %+v", seed, p, ref.stats, got.stats)
			}
			if len(got.loads) != len(ref.loads) {
				t.Fatalf("seed %d P=%d: link-load counts differ", seed, p)
			}
			for i := range ref.loads {
				if got.loads[i] != ref.loads[i] {
					t.Fatalf("seed %d P=%d: link load %d differs", seed, p, i)
				}
			}
		}
	}
}

// TestShardInvarianceFaulted exercises the abort path: flaky links (extra
// drop/retry records) and permanent link kills (typed FaultError unwinds)
// must commit the identical truncated trace, Stats and error under every
// shard count.
func TestShardInvarianceFaulted(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		n := 2 + rng.Intn(3)
		script := genScript(rng, n, 5+rng.Intn(12))
		spec := fault.FlakyLink(uint64(rng.Intn(1<<n)), rng.Intn(n), 0.4)
		if seed%3 == 0 {
			spec = fault.RandomLinkFailures(seed, 1+rng.Intn(2))
		}
		fp, err := fault.Compile(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		ref := runScriptCfg(t, n, machine.IPSC(), script, fp, schedConfig{reference: true, trace: true})
		for _, p := range shardCounts() {
			got := runScriptCfg(t, n, machine.IPSC(), script, fp, schedConfig{shards: p, trace: true})
			t.Run(fmt.Sprintf("seed%d/P%d", seed, p), func(t *testing.T) {
				checkEquivalent(t, ref, got)
			})
		}
	}
}

// TestShardInvarianceDeadline pins deadline aborts: the sharded scheduler
// must abort on the same operation with the same typed error and the same
// truncated Stats/trace as the serial engine.
func TestShardInvarianceDeadline(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		n := 2 + rng.Intn(3)
		script := genScript(rng, n, 8+rng.Intn(12))
		// Find the fault-free makespan, then abort mid-run.
		full := runScriptCfg(t, n, machine.IPSC(), script, nil, schedConfig{reference: true, trace: true})
		deadline := full.stats.Time * (0.2 + 0.6*rng.Float64())
		ref := runScriptCfg(t, n, machine.IPSC(), script, nil,
			schedConfig{reference: true, trace: true, deadline: deadline})
		for _, p := range shardCounts() {
			got := runScriptCfg(t, n, machine.IPSC(), script, nil,
				schedConfig{shards: p, trace: true, deadline: deadline})
			t.Run(fmt.Sprintf("seed%d/P%d", seed, p), func(t *testing.T) {
				checkEquivalent(t, ref, got)
			})
		}
	}
}

// TestShardDeadlockReported pins the deadlock diagnostic across schedulers.
func TestShardDeadlockReported(t *testing.T) {
	run := func(p int) string {
		e, err := simnet.New(2, machine.IPSC())
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 {
			e.SetShards(p)
		}
		err = e.Run(func(nd fabric.Node) {
			if nd.ID() == 0 {
				nd.Send(0, fabric.Msg{Data: []float64{1}})
			}
			if nd.ID() != 1 {
				nd.Recv(0) // nodes 2, 3 wait forever
			}
		})
		if err == nil {
			t.Fatal("want deadlock error")
		}
		return err.Error()
	}
	ref := run(0)
	if !strings.Contains(ref, "deadlock") {
		t.Fatalf("unexpected serial error: %v", ref)
	}
	for _, p := range shardCounts() {
		if got := run(p); got != ref {
			t.Errorf("P=%d deadlock error differs:\n  serial:  %s\n  sharded: %s", p, ref, got)
		}
	}
}

// TestShardProgramPanic pins program-panic unwinding under sharding.
func TestShardProgramPanic(t *testing.T) {
	run := func(p int) string {
		e, err := simnet.New(2, machine.IPSC())
		if err != nil {
			t.Fatal(err)
		}
		if p != 0 {
			e.SetShards(p)
		}
		err = e.Run(func(nd fabric.Node) {
			for d := 0; d < nd.Dims(); d++ {
				nd.Exchange(d, fabric.Msg{Data: []float64{1}})
			}
			if nd.ID() == 3 {
				panic("boom")
			}
		})
		if err == nil {
			t.Fatal("want panic error")
		}
		return err.Error()
	}
	ref := run(0)
	for _, p := range shardCounts() {
		if got := run(p); got != ref {
			t.Errorf("P=%d panic error differs: %q vs %q", p, got, ref)
		}
	}
}

// TestShardAutoThreshold checks the SetShards(0) policy boundary: small
// engines stay serial, large ones shard, and results agree either way.
func TestShardAutoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("auto-shard equivalence is covered by the 12-cube smoke in check.sh")
	}
	// 11-cube (2048 nodes) is the smallest auto-sharded size.
	stats := func(force int) fabric.Stats {
		e, err := simnet.New(11, machine.IPSCNPort())
		if err != nil {
			t.Fatal(err)
		}
		e.SetShards(force)
		err = e.Run(func(nd fabric.Node) {
			for d := nd.Dims() - 1; d >= 0; d-- {
				m := nd.Exchange(d, fabric.Msg{Data: nd.AllocData(4)})
				nd.Recycle(m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	serial := stats(-1)
	auto := stats(0)
	if serial != auto {
		t.Fatalf("auto-sharded 11-cube diverged:\n  serial: %+v\n  auto:   %+v", serial, auto)
	}
}

// TestCube12ShardedSmoke is the 12-cube scale smoke for check.sh: a full
// dimension-scan all-to-all on 4096 nodes, sharded versus serial,
// byte-identical Stats. Skipped under -short so the race-detector suite
// stays within its timeout; scripts/check.sh runs it explicitly.
func TestCube12ShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("12-cube smoke skipped in -short mode (run by check.sh explicitly)")
	}
	run := func(force int) fabric.Stats {
		e, err := simnet.New(12, machine.ConnectionMachine())
		if err != nil {
			t.Fatal(err)
		}
		e.SetShards(force)
		err = e.Run(func(nd fabric.Node) {
			for d := nd.Dims() - 1; d >= 0; d-- {
				m := nd.Exchange(d, fabric.Msg{Data: nd.AllocData(8)})
				nd.Recycle(m)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	serial := run(-1)
	sharded := run(2)
	if serial != sharded {
		t.Fatalf("12-cube sharded run diverged:\n  serial:  %+v\n  sharded: %+v", serial, sharded)
	}
	if sharded.Sends != int64(4096*12*1) {
		t.Fatalf("unexpected send count %d", sharded.Sends)
	}
}
