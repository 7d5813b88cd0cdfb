package simnet_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

// This file is the scheduler-equivalence property test: the indexed
// ready-queue scheduler must make bit-identical decisions to the retained
// linear-scan reference on randomized node programs — same virtual-time
// trace, same Stats, same link loads, same error (if any) — across port
// models and under fault injection.

type eventLog struct {
	events []fabric.TraceEvent
}

func (l *eventLog) Record(ev fabric.TraceEvent) { l.events = append(l.events, ev) }

// A schedStep is one synchronous phase of the randomized symmetric program.
// Every node executes the same step kinds in the same order (with payload
// sizes varying by node id), so the program is deadlock-free by
// construction: matching sends and receives always pair up.
type schedStep struct {
	kind  int // 0 exchange, 1 multi-send + RecvAny, 2 copy, 3 advance
	dim   int
	dims  []int
	bytes int
	dt    float64
}

func genScript(rng *rand.Rand, n, steps int) []schedStep {
	script := make([]schedStep, steps)
	for i := range script {
		s := &script[i]
		s.kind = rng.Intn(4)
		switch s.kind {
		case 0:
			s.dim = rng.Intn(n)
		case 1:
			// A random non-empty dimension subset; every node sends on each
			// and drains the same count with RecvAny.
			for d := 0; d < n; d++ {
				if rng.Intn(2) == 1 {
					s.dims = append(s.dims, d)
				}
			}
			if len(s.dims) == 0 {
				s.dims = []int{rng.Intn(n)}
			}
		case 2:
			s.bytes = 8 * (1 + rng.Intn(64))
		case 3:
			s.dt = float64(1+rng.Intn(50)) / 2
		}
	}
	return script
}

type schedOutcome struct {
	events []fabric.TraceEvent
	stats  fabric.Stats
	loads  []fabric.LinkLoad
	err    string
}

// schedConfig selects which scheduler a runScript run uses: the linear-scan
// reference, the serial indexed queue, or the sharded epoch scheduler with
// a forced worker count (shards >= 1).
type schedConfig struct {
	reference bool
	shards    int     // 0 = serial indexed (below the auto threshold)
	trace     bool    // install the event-log tracer
	deadline  float64 // virtual-time budget, 0 = none
}

func runScript(t *testing.T, n int, params machine.Params, script []schedStep,
	faults *fault.Plan, reference bool) schedOutcome {
	t.Helper()
	return runScriptCfg(t, n, params, script, faults, schedConfig{reference: reference, trace: true})
}

func runScriptCfg(t *testing.T, n int, params machine.Params, script []schedStep,
	faults *fault.Plan, cfg schedConfig) schedOutcome {
	t.Helper()
	e, err := simnet.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	e.SetReferenceScheduler(cfg.reference)
	if cfg.shards != 0 {
		e.SetShards(cfg.shards)
	}
	log := &eventLog{}
	if cfg.trace {
		e.SetTracer(log)
	}
	if cfg.deadline > 0 {
		e.SetDeadline(cfg.deadline)
	}
	if faults != nil {
		e.SetFaults(faults, fabric.RetryPolicy{Attempts: 12})
	}
	runErr := e.Run(func(nd fabric.Node) {
		id := int(nd.ID())
		for si := range script {
			s := &script[si]
			switch s.kind {
			case 0:
				sz := 1 + (id*7+si*3)%29
				nd.Send(s.dim, fabric.Msg{Data: nd.AllocData(sz)})
				nd.Recycle(nd.Recv(s.dim))
			case 1:
				for _, d := range s.dims {
					sz := 1 + (id+5*d+si)%17
					nd.Send(d, fabric.Msg{Data: nd.AllocData(sz)})
				}
				for range s.dims {
					nd.Recycle(nd.RecvAny())
				}
			case 2:
				nd.Copy(s.bytes + 8*(id%3))
			case 3:
				nd.Advance(s.dt)
			}
		}
	})
	out := schedOutcome{events: log.events, stats: e.Stats(), loads: e.LinkLoads()}
	if runErr != nil {
		out.err = runErr.Error()
	}
	return out
}

func checkEquivalent(t *testing.T, ref, idx schedOutcome) {
	t.Helper()
	if ref.err != idx.err {
		t.Fatalf("errors differ:\n  reference: %q\n  indexed:   %q", ref.err, idx.err)
	}
	if !reflect.DeepEqual(ref.stats, idx.stats) {
		t.Fatalf("stats differ:\n  reference: %+v\n  indexed:   %+v", ref.stats, idx.stats)
	}
	if !slices.Equal(ref.loads, idx.loads) {
		t.Fatalf("link loads differ (%d vs %d entries)", len(ref.loads), len(idx.loads))
	}
	if len(ref.events) != len(idx.events) {
		t.Fatalf("trace lengths differ: reference %d, indexed %d", len(ref.events), len(idx.events))
	}
	for i := range ref.events {
		if ref.events[i] != idx.events[i] {
			t.Fatalf("trace event %d differs:\n  reference: %+v\n  indexed:   %+v",
				i, ref.events[i], idx.events[i])
		}
	}
}

func TestSchedulerEquivalenceProperty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params machine.Params
	}{
		{"one-port", machine.IPSC()},
		{"n-port", machine.IPSCNPort()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(4) // 4 to 32 nodes
				script := genScript(rng, n, 6+rng.Intn(20))
				ref := runScript(t, n, tc.params, script, nil, true)
				idx := runScript(t, n, tc.params, script, nil, false)
				if len(ref.events) == 0 {
					t.Fatalf("seed %d produced an empty trace; property vacuous", seed)
				}
				checkEquivalent(t, ref, idx)
			}
		})
	}
}

// TestSchedulerEquivalenceFaulted repeats the property under fault
// injection: flaky links exercise the retry/drop path (extra trace events,
// fault counters), and a permanently down link exercises the abort/unwind
// path — both must be identical under either scheduler.
func TestSchedulerEquivalenceFaulted(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
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
		name := fmt.Sprintf("seed%d", seed)
		ref := runScript(t, n, machine.IPSC(), script, fp, true)
		idx := runScript(t, n, machine.IPSC(), script, fp, false)
		t.Run(name, func(t *testing.T) { checkEquivalent(t, ref, idx) })
	}
}
