package router

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"boolcube/internal/cube"
	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
	"boolcube/internal/simnet"
)

func engine(t *testing.T, n int, ports machine.PortModel) *simnet.Engine {
	t.Helper()
	e, err := simnet.New(n, machine.Ideal(ports))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleFlow(t *testing.T) {
	e := engine(t, 3, machine.NPort)
	flows := []Flow{{Src: 0, Dst: 7, Dims: []int{0, 1, 2}, Data: []float64{1, 2, 3}}}
	got, err := Run(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Flow != 0 || len(got[0].Data) != 3 {
		t.Fatalf("deliveries = %+v", got)
	}
	// 3 hops, each τ=1 + 3 bytes = 4: store-and-forward = 12.
	if e.Stats().Time != 12 {
		t.Errorf("time = %v, want 12", e.Stats().Time)
	}
}

func TestLocalFlow(t *testing.T) {
	e := engine(t, 2, machine.OnePort)
	flows := []Flow{{Src: 1, Dst: 1, Data: []float64{5}}}
	got, err := Run(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Data[0] != 5 {
		t.Fatalf("local delivery broken: %+v", got)
	}
	if e.Stats().Sends != 0 {
		t.Errorf("local flow generated traffic")
	}
}

func TestPacketSplitReassembly(t *testing.T) {
	e := engine(t, 2, machine.NPort)
	data := []float64{0, 1, 2, 3, 4, 5, 6}
	flows := []Flow{{Src: 0, Dst: 3, Dims: []int{1, 0}, Data: data, Packets: 3}}
	got, err := Run(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	d := got[0]
	if len(d.Data) != len(data) {
		t.Fatalf("reassembled %d elems, want %d", len(d.Data), len(data))
	}
	for i, v := range d.Data {
		if v != float64(i) {
			t.Fatalf("reassembly out of order: %v", d.Data)
		}
	}
}

// Packet pipelining: k packets over an h-hop path should take about
// (h + k - 1) packet-times, not h*k.
func TestStoreAndForwardPipelining(t *testing.T) {
	e := engine(t, 4, machine.NPort)
	data := make([]float64, 40) // 4 packets of 10 bytes: packet time 11
	flows := []Flow{{Src: 0, Dst: 15, Dims: []int{0, 1, 2, 3}, Data: data, Packets: 4}}
	if _, err := Run(e, flows); err != nil {
		t.Fatal(err)
	}
	got := e.Stats().Time
	want := float64(4+4-1) * 11 // (h + k - 1) * packet time
	if got != want {
		t.Errorf("pipelined time = %v, want %v", got, want)
	}
}

func TestRouteValidation(t *testing.T) {
	e := engine(t, 2, machine.OnePort)
	if _, err := Run(e, []Flow{{Src: 0, Dst: 3, Dims: []int{0}}}); err == nil ||
		!strings.Contains(err.Error(), "ends at") {
		t.Errorf("bad route accepted: %v", err)
	}
	if _, err := Run(e, []Flow{{Src: 0, Dst: 1, Dims: []int{7}}}); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := Run(e, []Flow{{Src: 9, Dst: 1, Dims: []int{0}}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
}

func TestEcube(t *testing.T) {
	dims := Ecube(0b001, 0b110, 3)
	want := []int{0, 1, 2}
	if len(dims) != 3 {
		t.Fatalf("ecube dims = %v", dims)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("ecube dims = %v, want %v", dims, want)
		}
	}
	if len(Ecube(5, 5, 3)) != 0 {
		t.Error("self route not empty")
	}
	if end := cube.PathEnd(0b001, dims); end != 0b110 {
		t.Errorf("ecube route ends at %b", end)
	}
}

// All-to-all over e-cube routes: every node gets N-1 deliveries with the
// right payloads, under both port models.
func TestEcubeAllToAll(t *testing.T) {
	for _, ports := range []machine.PortModel{machine.OnePort, machine.NPort} {
		n := 3
		N := uint64(1) << uint(n)
		e := engine(t, n, ports)
		var flows []Flow
		for s := uint64(0); s < N; s++ {
			for d := uint64(0); d < N; d++ {
				if s == d {
					continue
				}
				flows = append(flows, Flow{
					Src: s, Dst: d, Dims: Ecube(s, d, n),
					Data: []float64{float64(s*100 + d)},
				})
			}
		}
		got, err := Run(e, flows)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(flows) {
			t.Fatalf("%v: %d deliveries for %d flows", ports, len(got), len(flows))
		}
		for i, del := range got {
			f := flows[i]
			if del.Flow != i || del.Data[0] != float64(f.Src*100+f.Dst) {
				t.Fatalf("%v: delivery %d (flow %d) has payload %v, want %d->%d's", ports, i, del.Flow, del.Data, f.Src, f.Dst)
			}
		}
	}
}

// MPT flows from the cube package must execute conflict-aware and deliver
// the full payload.
func TestMPTFlowsDeliver(t *testing.T) {
	n := 6
	N := uint64(1) << uint(n)
	e := engine(t, n, machine.NPort)
	var flows []Flow
	for x := uint64(0); x < N; x++ {
		paths := cube.MPTPaths(x, n)
		if len(paths) == 0 {
			continue
		}
		payload := make([]float64, 4*len(paths)) // 4H packets over 2H paths
		for i := range payload {
			payload[i] = float64(x)
		}
		chunk := len(payload) / len(paths)
		for pi, dims := range paths {
			flows = append(flows, Flow{
				Src: x, Dst: cube.Tr(x, n), Dims: dims,
				Data:    payload[pi*chunk : (pi+1)*chunk],
				Packets: 2,
			})
		}
	}
	got, err := Run(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[uint64]int)
	for _, d := range got {
		x := flows[d.Flow].Src
		total[x] += len(d.Data)
		for _, v := range d.Data {
			if v != float64(x) {
				t.Fatalf("corrupted payload at %d from %d", cube.Tr(x, n), x)
			}
		}
	}
	for x := uint64(0); x < N; x++ {
		if tr := cube.Tr(x, n); x != tr && total[x] != 8*cube.HalfHamming(x, n) { // 4 elems per path, 2H paths
			t.Fatalf("node %b delivered %d elems to %b", x, total[x], tr)
		}
	}
}

func TestDeterministicStats(t *testing.T) {
	build := func() (*simnet.Engine, []Flow) {
		e := engine(t, 4, machine.OnePort)
		var flows []Flow
		N := uint64(16)
		for s := uint64(0); s < N; s++ {
			d := (s + 5) % N
			flows = append(flows, Flow{Src: s, Dst: d, Dims: Ecube(s, d, 4),
				Data: make([]float64, int(s)+1), Packets: 2})
		}
		return e, flows
	}
	e1, f1 := build()
	if _, err := Run(e1, f1); err != nil {
		t.Fatal(err)
	}
	e2, f2 := build()
	if _, err := Run(e2, f2); err != nil {
		t.Fatal(err)
	}
	if e1.Stats() != e2.Stats() {
		t.Errorf("nondeterministic: %+v vs %+v", e1.Stats(), e2.Stats())
	}
}

// attributionFlows builds an MPT-style flow set on an n-cube: every node
// sends to its complement over several disjoint routes with different
// packet counts and payload sizes, plus one zero-hop flow, and every
// element encodes its flow index, so a delivery handed to the wrong flow
// shows in its payload.
func attributionFlows(n int) []Flow {
	N := uint64(1) << uint(n)
	c := cube.New(n)
	var flows []Flow
	for s := uint64(0); s < N; s++ {
		d := s ^ (N - 1)
		for k, dims := range cube.DisjointPaths(c, s, d)[:3] {
			flows = append(flows, Flow{Src: s, Dst: d, Dims: dims, Packets: k + 2})
		}
		flows = append(flows, Flow{Src: s, Dst: s})
	}
	for i := range flows {
		flows[i].Data = make([]float64, 4+i%5)
		for j := range flows[i].Data {
			flows[i].Data[j] = float64(i*100 + j)
		}
	}
	return flows
}

// checkAttributed fails unless every delivery carries its own flow's
// payload, in ascending flow order.
func checkAttributed(t *testing.T, flows []Flow, got []Delivery) {
	t.Helper()
	for k, d := range got {
		if k > 0 && d.Flow <= got[k-1].Flow {
			t.Fatalf("delivery %d: flow %d after flow %d", k, d.Flow, got[k-1].Flow)
		}
		if want := flows[d.Flow].Data; !slices.Equal(d.Data, want) {
			t.Fatalf("flow %d delivered %v, want %v", d.Flow, d.Data, want)
		}
	}
}

// Deliveries are attributed by flow index, not by endpoints: several flows
// per (src, dst) pair with different routes and packet counts, plus
// zero-hop flows, each get back exactly their own payload — on a clean run
// all of them, on a run that fails mid-way only the completed ones.
func TestRunAttributesDeliveriesByFlow(t *testing.T) {
	const n = 4
	flows := attributionFlows(n)

	e := engine(t, n, machine.NPort)
	got, err := Run(e, flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) {
		t.Fatalf("clean run delivered %d of %d flows", len(got), len(flows))
	}
	checkAttributed(t, flows, got)
	makespan := e.Stats().Time

	// The link kill takes every dimension-0 link down a third of the way in.
	var kill fault.Spec
	for x := uint64(0); x < 1<<n; x++ {
		kill.Rules = append(kill.Rules, fault.Rule{Kind: fault.LinkDown, Link: fault.Link{From: x, Dim: 0}, Start: makespan / 3})
	}
	fails := []struct {
		name string
		arm  func(e *simnet.Engine)
		want error
	}{
		{"deadline", func(e *simnet.Engine) { e.SetDeadline(makespan / 2) }, fabric.ErrDeadline},
		{"link kill", func(e *simnet.Engine) { e.SetFaults(fault.MustCompile(kill, n), fabric.RetryPolicy{}) }, fabric.ErrLinkDown},
	}
	for _, fc := range fails {
		name := fc.name
		e := engine(t, n, machine.NPort)
		fc.arm(e)
		got, err := Run(e, flows)
		if !errors.Is(err, fc.want) {
			t.Fatalf("%s: run error %v, want %v", name, err, fc.want)
		}
		if len(got) == 0 || len(got) >= len(flows) {
			t.Fatalf("%s: salvaged %d of %d flows, want a strict subset", name, len(got), len(flows))
		}
		checkAttributed(t, flows, got)
	}
}

// A failed run lists a flow only once every packet of it is in. Node 1 has
// one packet to send, then receives node 0's eight-packet stream as it
// trickles in; the deadline cuts the stream half received.
func TestRunOmitsPartlyDeliveredFlows(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 1, Dims: []int{0}, Packets: 8, Data: make([]float64, 16)},
		{Src: 1, Dst: 0, Dims: []int{0}, Data: []float64{1}},
	}
	for i := range flows[0].Data {
		flows[0].Data[i] = float64(i)
	}
	e := engine(t, 1, machine.NPort)
	e.SetDeadline(17)
	got, err := Run(e, flows)
	if !errors.Is(err, fabric.ErrDeadline) {
		t.Fatalf("run error %v, want a deadline abort", err)
	}
	checkAttributed(t, flows, got)
}
