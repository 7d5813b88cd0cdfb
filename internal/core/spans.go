package core

import (
	"boolcube/internal/fabric"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/router"
)

// SpanSet is one target of the span executor: the plan whose canonical
// move-set addresses its spans, the source distribution their payloads are
// gathered from, the after-side arrays they are scattered into, the delivery
// record of what has landed, and the spans still to move. Flow plans start
// from their compiled flows; checkpoint resume, crash recovery and service
// rounds run residual spans (Rebuild). Spans always name logical nodes;
// Phys, when set, maps each logical node to the physical node hosting it
// (nil is the identity embedding), and a remapped span routes
// dimension-order between its hosts.
type SpanSet struct {
	Plan      *plan.Plan
	Src       *matrix.Dist
	Loc       [][]float64
	Delivered *plan.Delivered
	Flows     []plan.Flow
	Phys      func(uint64) uint64
}

// NewSpanSet allocates the plan's after-side arrays for source d and places
// the src == dst self pairs host-side: they never cross a link, so even a
// failed first run checkpoints with them durable. The set has no spans yet.
func NewSpanSet(p *plan.Plan, d *matrix.Dist) *SpanSet {
	after := p.After()
	mv := p.Moves()
	s := &SpanSet{Plan: p, Src: d, Loc: newLocal(after, 1<<p.NDims()), Delivered: plan.NewDelivered()}
	for dp := 0; dp < after.N() && dp < d.Layout.N(); dp++ {
		id := uint64(dp)
		self := mv.Gather(id, d.Local[dp], id)
		mv.Scatter(id, s.Loc[dp], id, self)
		s.Delivered.Add(id, id, 0, len(self))
	}
	return s
}

// Rebuild replaces the set's spans with its residual move-set, everything
// the delivery record does not cover yet: self-pair residuals are replayed
// host-side on the spot, network residuals become dimension-order spans of
// the given packet count (0 takes the plan's). Ecube routes are shortest
// paths, so residual traffic never exceeds what a full restart would move
// for the same pairs.
func (s *SpanSet) Rebuild(packets int) {
	if packets <= 0 {
		packets = s.Plan.Config().Packets
	}
	mv := s.Plan.Moves()
	var spans []plan.Flow
	for _, r := range s.Plan.Remaining(s.Delivered) {
		if r.Src != r.Dst {
			spans = append(spans, plan.Flow{
				Src: r.Src, Dst: r.Dst, Off: r.Off, Len: r.Len,
				Dims: router.Ecube(r.Src, r.Dst, s.Plan.NDims()), Packets: packets,
			})
			continue
		}
		id := r.Src
		if id < uint64(len(s.Src.Local)) && s.Loc[id] != nil {
			mv.ScatterRange(id, s.Loc[id], id, r.Off, mv.GatherRange(id, s.Src.Local[id], id, r.Off, r.Len))
		}
		s.Delivered.Add(id, id, r.Off, r.Len)
	}
	s.Flows = spans
}

// Endpoints returns the distinct endpoints of the set's spans in
// first-appearance order: the nodes a remap must keep hosted.
func (s *SpanSet) Endpoints() []uint64 {
	seen := make(map[uint64]bool, 2*len(s.Flows))
	var out []uint64
	for _, sp := range s.Flows {
		for _, nd := range [2]uint64{sp.Src, sp.Dst} {
			if !seen[nd] {
				seen[nd] = true
				out = append(out, nd)
			}
		}
	}
	return out
}

// spanRef locates the span a router flow carries.
type spanRef struct{ set, span int }

// FlowRun is the span executor: the spans of one or more sets merged into a
// single router flow set for one engine. Every delivered flow is scattered
// at its span's canonical offset into its own set, so co-scheduled sets may
// share processor pairs and routes freely.
type FlowRun struct {
	sets  []*SpanSet
	flows []router.Flow
	refs  []spanRef // refs[i] is the span flows[i] carries
	rep   router.FailoverReport
}

// NewFlowRun gathers every set's spans, in set order, into the flow set of
// an n-cube. When down is non-nil, flows crossing a link it condemns are
// rerouted onto disjoint-path alternatives first (abandon drops the ones
// with none left); a flow that can be neither rerouted nor abandoned fails
// with a *router.RouteError before anything runs. Plan routes are never
// mutated.
func NewFlowRun(n int, sets []*SpanSet, down func(from uint64, dim int) bool, abandon bool) (*FlowRun, error) {
	// One arena for every payload (capped slices): the router chunks each
	// region in place and ownership passes to the receiving nodes.
	total := 0
	for _, s := range sets {
		for _, sp := range s.Flows {
			total += sp.Len
		}
	}
	arena := make([]float64, total)
	r := &FlowRun{sets: sets}
	for si, s := range sets {
		mv := s.Plan.Moves()
		for k, sp := range s.Flows {
			buf := arena[:sp.Len:sp.Len]
			arena = arena[sp.Len:]
			mv.GatherRangeInto(sp.Src, s.Src.Local[sp.Src], sp.Dst, sp.Off, sp.Len, buf)
			src, dst, dims := sp.Src, sp.Dst, sp.Dims
			if s.Phys != nil {
				src, dst = s.Phys(sp.Src), s.Phys(sp.Dst)
				dims = router.Ecube(src, dst, n)
			}
			r.flows = append(r.flows, router.Flow{Src: src, Dst: dst, Dims: dims, Packets: sp.Packets, Data: buf})
			r.refs = append(r.refs, spanRef{si, k})
		}
	}
	if down != nil {
		flows, kept, rep, err := router.Failover(r.flows, n, down, abandon)
		if err != nil {
			return nil, err
		}
		refs := make([]spanRef, len(kept))
		for i, k := range kept {
			refs[i] = r.refs[k]
		}
		r.flows, r.refs, r.rep = flows, refs, rep
	}
	return r, nil
}

// Run injects the flow set on e and scatters every delivered flow into its
// set's arrays, recording it delivered. A failed run places the flows that
// completed, so each set's record is exactly the work that landed and a
// checkpoint built from it resumes with only the flows still in flight.
// The returned Stats are e's with the failover degradation folded in.
func (r *FlowRun) Run(e fabric.Fabric) (fabric.Stats, error) {
	if e.DebugChecks() {
		for i, ref := range r.refs {
			sp := r.sets[ref.set].Flows[ref.span]
			r.flows[i].Tags = addrTags(sp.Src, sp.Off, sp.Len)
		}
	}
	ds, err := router.Run(e, r.flows)
	for _, d := range ds {
		ref := r.refs[d.Flow]
		s := r.sets[ref.set]
		sp := s.Flows[ref.span]
		if d.Tags != nil {
			verifyTagsHost(sp.Src, sp.Dst, sp.Off, d.Tags)
		}
		// Scatter by the span's logical ids, not the wire endpoints: under a
		// remap the flow traveled between physical hosts, but the payload
		// belongs to the logical (src, dst) pair.
		s.Plan.Moves().ScatterRange(sp.Dst, s.Loc[sp.Dst], sp.Src, sp.Off, d.Data)
		s.Delivered.Add(sp.Src, sp.Dst, sp.Off, len(d.Data))
	}
	st := e.Stats()
	st.Rerouted = r.rep.Rerouted
	st.ExtraHops = r.rep.ExtraHops
	st.Abandoned = r.rep.Abandoned
	return st, err
}
