// Package router executes source-routed, store-and-forward traffic on a
// simulated cube: every transfer carries its full dimension route, and
// intermediate nodes forward packets hop by hop. Because routes are fixed
// in advance, per-node termination counts are computed statically, so node
// programs never need timeouts or control messages.
//
// The transpose path systems of the paper (SPT, DPT, MPT), spanning-tree
// personalized communication, and the iPSC/CM "routing logic" (dimension-
// order e-cube) experiments all reduce to flow sets executed by this
// package.
package router

import (
	"fmt"
	"slices"

	"boolcube/internal/fabric"
)

// Flow is one source-to-destination transfer along an explicit route.
type Flow struct {
	Src, Dst uint64
	Dims     []int     // route; PathEnd(Src, Dims) must equal Dst
	Data     []float64 // payload (matrix elements)
	Packets  int       // number of packets the payload is split into (min 1)
	// Tags carries one address tag per payload element under SIMNET_DEBUG
	// (nil otherwise). When non-nil it must be the same length as Data; it
	// is split and reassembled packet-for-packet alongside the payload.
	Tags []uint64
}

// Delivery is one completed flow at its destination: Flow indexes the
// submitted flow slice, Data is the payload reassembled in packet order and
// Tags the reassembled address-tag array when the flow carried one (nil
// otherwise).
type Delivery struct {
	Flow int
	Data []float64
	Tags []uint64
}

// Run executes all flows on the engine and returns one Delivery per
// completed flow, ascending by flow index; on success every flow completes,
// so delivery i belongs to flow i. Sources inject their packets round-robin
// across their flows — packet 0 of every flow first — which realizes the
// paper's MPT schedule of sending one packet per path per cycle.
//
// When the engine run fails (fault injection, deadline, deadlock), the
// deliveries are what a checkpoint can salvage: the flows whose every packet
// had reached its destination, recovered from the destination nodes' final
// buffers — safe to read host-side because a failed run parks every node
// before returning — and returned alongside the error. Flows with any
// packet still in flight are absent; partial payloads are never exposed.
//
// Every flow is stamped with a whole-flow delivery-audit checksum at
// injection (one pass per flow, carried by each of its packets) and
// verified once at its destination after the flow's packets have all
// arrived; a mismatch aborts the run with a typed *fabric.AuditError.
func Run(e fabric.Fabric, flows []Flow) ([]Delivery, error) {
	n := e.Dims()
	N := uint64(e.Nodes())
	for i, f := range flows {
		if f.Src >= N || f.Dst >= N {
			return nil, fmt.Errorf("router: flow %d endpoints out of range", i)
		}
		if f.Tags != nil && len(f.Tags) != len(f.Data) {
			return nil, fmt.Errorf("router: flow %d has %d tags for %d elements", i, len(f.Tags), len(f.Data))
		}
		end := f.Src
		for _, d := range f.Dims {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("router: flow %d has dimension %d out of range", i, d)
			}
			end ^= 1 << uint(d)
		}
		if end != f.Dst {
			return nil, fmt.Errorf("router: flow %d route ends at %d, not %d", i, end, f.Dst)
		}
	}
	// Static planning: per-source flow lists, per-node arrival counts, and
	// per-destination final packet counts (all dense — the routes are fixed,
	// so every buffer can be sized exactly before the engine runs).
	bySrc := make([][]int, N)
	expect := make([]int, N)
	finalCount := make([]int, N)
	for i, f := range flows {
		if len(f.Dims) == 0 {
			continue // local; no traffic
		}
		pk := packetsOf(f)
		bySrc[f.Src] = append(bySrc[f.Src], i)
		x := f.Src
		for _, d := range f.Dims {
			x ^= 1 << uint(d)
			expect[x] += pk
		}
		finalCount[f.Dst] += pk
	}

	// finals[node] accumulates (flow, packet, data) at destinations,
	// presized to the known arrival totals.
	finals := make([][]pkt, N)
	for i := range finals {
		if finalCount[i] > 0 {
			finals[i] = make([]pkt, 0, finalCount[i])
		}
	}

	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		// Inject own packets, round-robin across flows.
		myFlows := bySrc[id]
		type cursor struct {
			flow   int
			chunks [][]float64
			tags   [][]uint64
			next   int
			sum    uint64
		}
		cursors := make([]cursor, 0, len(myFlows))
		for _, fi := range myFlows {
			f := flows[fi]
			pk := packetsOf(f)
			// One audit pass over the whole flow at injection; every packet
			// carries the flow sum and the destination verifies it once.
			c := cursor{flow: fi, chunks: splitChunks(f.Data, pk), sum: fabric.Checksum(f.Data)}
			if f.Tags != nil {
				// Same length as Data, so the chunk boundaries line up.
				c.tags = splitTags(f.Tags, pk)
			}
			cursors = append(cursors, c)
		}
		for remaining := true; remaining; {
			remaining = false
			for ci := range cursors {
				c := &cursors[ci]
				if c.next >= len(c.chunks) {
					continue
				}
				f := flows[c.flow]
				m := fabric.Msg{
					Src: f.Src, Dst: f.Dst, Tag: c.flow, Rel: uint64(c.next),
					Path: f.Dims[1:], Data: c.chunks[c.next],
					FlowSum: c.sum,
				}
				if c.tags != nil {
					m.Tags = c.tags[c.next]
				}
				nd.Send(f.Dims[0], m)
				c.next++
				if c.next < len(c.chunks) {
					remaining = true
				}
			}
		}
		// Receive and forward until the static arrival count is met.
		for i := 0; i < expect[id]; i++ {
			m := nd.RecvAny()
			if len(m.Path) == 0 {
				finals[id] = append(finals[id], pkt{flow: m.Tag, idx: int(m.Rel), data: m.Data, tags: m.Tags, sum: m.FlowSum})
				continue
			}
			next := m.Path[0]
			m.Path = m.Path[1:]
			nd.Send(next, m)
		}
		// Per-flow delivery audit: with every packet in, sort this node's
		// arrivals into (flow, packet) order and verify each flow's
		// reassembled payload in one streaming pass against the flow sum
		// stamped at injection.
		fin := finals[id]
		slices.SortFunc(fin, pktOrder)
		for s := 0; s < len(fin); {
			var sm fabric.Summer
			e := s
			for ; e < len(fin) && fin[e].flow == fin[s].flow; e++ {
				sm.Add(fin[e].data)
			}
			if want := fin[s].sum; want != 0 {
				if got := sm.Sum(); got != want {
					f := flows[fin[s].flow]
					nd.Fail(&fabric.AuditError{Node: id, Src: f.Src, Dst: f.Dst, What: "flow", Want: want, Got: got})
				}
			}
			s = e
		}
	})

	// Reassemble per flow. After a failed run every node has parked, so
	// finals is safe to read (and sort) here even on the error path; a node
	// whose program finished has already sorted its arrivals.
	byFlow := make([][]pkt, len(flows))
	for _, fin := range finals {
		if err != nil {
			slices.SortFunc(fin, pktOrder)
		}
		for s := 0; s < len(fin); {
			e := s + 1
			for e < len(fin) && fin[e].flow == fin[s].flow {
				e++
			}
			byFlow[fin[s].flow] = fin[s:e]
			s = e
		}
	}
	out := make([]Delivery, 0, len(flows))
	for i, f := range flows {
		if len(f.Dims) == 0 {
			d := Delivery{Flow: i, Data: append([]float64(nil), f.Data...)}
			if f.Tags != nil {
				d.Tags = append([]uint64(nil), f.Tags...)
			}
			out = append(out, d)
			continue
		}
		ps := byFlow[i]
		if len(ps) != packetsOf(f) {
			continue // packets still in flight; never expose partial payloads
		}
		d := Delivery{Flow: i, Data: make([]float64, 0, len(f.Data))}
		if f.Tags != nil {
			d.Tags = make([]uint64, 0, len(f.Tags))
		}
		for _, p := range ps {
			d.Data = append(d.Data, p.data...)
			if d.Tags != nil {
				d.Tags = append(d.Tags, p.tags...)
			}
		}
		// The in-run per-flow audit only fires on completed runs; audit
		// salvaged flows here so a corrupt payload is never exposed.
		if err != nil && ps[0].sum != 0 && fabric.Checksum(d.Data) != ps[0].sum {
			continue
		}
		out = append(out, d)
	}
	return out, err
}

// pkt is one packet at its destination.
type pkt struct {
	flow, idx int
	data      []float64
	tags      []uint64
	sum       uint64 // whole-flow checksum carried by the packet
}

// pktOrder sorts arrivals into (flow, packet) order.
func pktOrder(a, b pkt) int {
	if a.flow != b.flow {
		return a.flow - b.flow
	}
	return a.idx - b.idx
}

// packetsOf returns the effective packet count of a flow: at least 1, and
// never more than the payload has elements.
func packetsOf(f Flow) int {
	pk := f.Packets
	if pk < 1 {
		pk = 1
	}
	if pk > len(f.Data) && len(f.Data) > 0 {
		pk = len(f.Data)
	}
	return pk
}

// splitChunks splits data into pk nearly equal chunks (earlier chunks get
// the remainder). Empty data yields pk empty chunks so that timing-only
// flows still generate traffic-free messages; callers normally provide
// payload.
func splitChunks(data []float64, pk int) [][]float64 {
	chunks := make([][]float64, pk)
	base := len(data) / pk
	rem := len(data) % pk
	off := 0
	for i := 0; i < pk; i++ {
		sz := base
		if i < rem {
			sz++
		}
		chunks[i] = data[off : off+sz]
		off += sz
	}
	return chunks
}

// splitTags splits a tag array with the same boundaries splitChunks uses for
// an equal-length payload.
func splitTags(tags []uint64, pk int) [][]uint64 {
	chunks := make([][]uint64, pk)
	base := len(tags) / pk
	rem := len(tags) % pk
	off := 0
	for i := 0; i < pk; i++ {
		sz := base
		if i < rem {
			sz++
		}
		chunks[i] = tags[off : off+sz]
		off += sz
	}
	return chunks
}

// Ecube returns the dimension-order (ascending) route from src to dst, the
// paths taken by the iPSC and Connection Machine routing logic.
func Ecube(src, dst uint64, n int) []int {
	var dims []int
	diff := src ^ dst
	for d := 0; d < n; d++ {
		if diff>>uint(d)&1 == 1 {
			dims = append(dims, d)
		}
	}
	return dims
}
