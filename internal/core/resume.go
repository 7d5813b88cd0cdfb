package core

import (
	"boolcube/internal/fabric"
	"boolcube/internal/plan"
	"boolcube/internal/remap"
)

// Resume finishes a checkpointed execution: it derives the residual move-set
// (plan.Plan.Remaining against the checkpoint's delivery record), recompiles
// it as direct flows, and runs them against the post-failure fault state —
// by default the checkpoint's own fault schedule shifted to the failure
// instant (fault.Plan.After), under which every link that failed mid-run is
// permanently down and the default reroute policy routes around it on
// disjoint-path alternatives. The residuals finish into the checkpoint's own
// destination arrays, so the Result's Dist is bit-identical to what an
// uninterrupted run would have produced, and its Stats fold the resumed
// run's cost on top of the cost already sunk (so resume cost is
// Stats.Bytes - cp.Stats.Bytes, directly comparable to a full restart).
//
// xo configures the resumed run. A nil xo.Faults means "inherit": the
// checkpoint's schedule shifted by cp.At. Tracer and Retry also default to
// the checkpoint's when unset; Failover's zero value is FailoverReroute,
// which is almost always what a resume wants.
//
// If the resumed run fails in turn, Resume returns a new *ExecError whose
// Checkpoint has absorbed this attempt's deliveries, cost and fault view —
// resuming is idempotent-in-the-limit: each attempt only shrinks the
// residual, and calling Resume on the new checkpoint continues from there.
func Resume(cp *Checkpoint, xo ExecOptions) (*Result, error) {
	return resume(cp, xo, nil)
}

// resume finishes the checkpoint's residual move-set. With dead nodes it
// first relabels the logical cube onto the survivors (remap.Plan over the
// endpoints of the network residuals; self pairs replay host-side and need
// no live host). Residual payloads are gathered and scattered host-side by
// logical id either way; the assignment only decides where the transport
// injects and ejects them, so a remapped resume stays element-exact.
// Logical pairs whose hosts coincide route as zero-hop flows, which the
// router completes host-side without touching the network.
func resume(cp *Checkpoint, xo ExecOptions, dead []uint64) (*Result, error) {
	p := cp.Plan
	if xo.Faults == nil && cp.Opts.Faults != nil {
		xo.Faults = cp.Opts.Faults.After(cp.At)
	}
	if xo.Tracer == nil {
		xo.Tracer = cp.Opts.Tracer
	}
	if xo.Retry == (fabric.RetryPolicy{}) {
		xo.Retry = cp.Opts.Retry
	}
	if cp.Delivered == nil {
		cp.Delivered = plan.NewDelivered()
	}

	set := &SpanSet{Plan: p, Src: cp.Src, Loc: cp.Loc, Delivered: cp.Delivered}
	set.Rebuild(0)
	if len(set.Flows) == 0 {
		return &Result{Dist: finishDist(p.After(), cp.Loc), Stats: cp.Stats}, nil
	}
	if len(dead) > 0 {
		asg, err := remap.Plan(p.NDims(), dead, set.Endpoints())
		if err != nil {
			return nil, err
		}
		set.Phys = asg.Phys
	}
	e, err := planEngine(p, xo)
	if err != nil {
		return nil, err
	}
	fr, err := NewFlowRun(p.NDims(), []*SpanSet{set}, xo.down(), xo.Failover == FailoverAbandon)
	if err != nil {
		return nil, err
	}
	st, err := fr.Run(e)
	if err != nil {
		// The checkpoint has absorbed this attempt's completed flows; hand
		// it back with Opts/At describing the just-failed attempt (its fault
		// view and how far it got) and Stats the cumulative cost.
		cp.Stats = mergeStats(cp.Stats, st)
		cp.At = st.Time
		cp.Opts = xo
		return nil, &ExecError{Checkpoint: cp, Err: err}
	}
	return &Result{Dist: finishDist(p.After(), cp.Loc), Stats: mergeStats(cp.Stats, st)}, nil
}
