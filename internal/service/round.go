package service

import (
	"errors"
	"fmt"
	"math"

	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/matrix"
	"boolcube/internal/plan"
	"boolcube/internal/remap"
)

// unit is one execution unit of a round: a batch of jobs sharing a compiled
// plan and a source distribution. Its span set holds their shared
// destination arrays, delivery record and the network spans still owed;
// the unit adds the cost accrued across its rounds, the attempt count, the
// tightest deadline budget in the batch and its crash casualties. jobs[0]
// is the leader — it receives the real arrays; followers receive deep
// copies.
type unit struct {
	*core.SpanSet
	jobs     []*Job
	stats    fabric.Stats // cost accrued across this unit's rounds
	attempts int
	budget   float64  // remaining deadline budget, µs (+Inf = none)
	dead     []uint64 // crash casualties accumulated across this unit's rounds, ascending
}

// budgetOf maps a job's deadline to a budget (+Inf when unset).
func budgetOf(j *Job) float64 {
	if j.spec.Deadline > 0 {
		return j.spec.Deadline
	}
	return math.Inf(1)
}

// newUnit builds a fresh execution unit for one job: allocates the
// destination arrays with the self pairs placed host-side, and sets the
// network spans. Flow plans keep their compiled path-system routes and
// packetization; exchange and mixed-program plans execute their canonical
// move-set over dimension-order direct routes, exactly as checkpoint resume
// replays residuals.
func newUnit(j *Job, packets int) *unit {
	u := &unit{SpanSet: core.NewSpanSet(j.plan, j.spec.Src), jobs: []*Job{j}, budget: budgetOf(j)}
	if j.plan.Kind() == plan.KindFlow {
		u.Flows = j.plan.Flows()
	} else {
		u.Rebuild(packets)
	}
	return u
}

// runRound executes one round: the union of every unit's spans as one flow
// set on one fresh engine. This is where multi-tenancy becomes physical —
// co-scheduled units' packets contend for the same links, and the round's
// deadline is the tightest remaining budget among its jobs. On success every
// unit completes; on a deadline abort the binding units fail with per-job
// checkpoints while the others absorb the round's partial progress, shrink
// their budgets by the round's makespan, and re-queue for an automatic
// residual resume.
//
// Under the service's fault view, rounds survive dead hardware: a unit
// whose transfers start or end on a dead or quarantined node is relabeled
// onto survivors (internal/remap — spare substitution or a Gray-preserving
// fold), residual payloads staying addressed by logical id so results are
// element-exact; flows that merely route through a casualty fail over to
// disjoint-path alternatives. A round that still dies on a node crash
// surfaces a *fabric.NodeDownError; its units absorb the casualties into
// their dead sets and re-queue for recovery under the backoff policy.
func (s *Service) runRound(units []*unit) {
	// Relabel degraded units before building flows. A unit needs a remap
	// only when a span endpoint is dead; its compiled routes are otherwise
	// kept and the failover pass below handles dead intermediates.
	avoid := s.quarantineSnapshot()
	roundDead := make(map[uint64]bool)
	live := units[:0:0]
	for _, u := range units {
		u.Phys = nil
		deadU := deadView(u.dead, avoid)
		for nd := range deadU {
			roundDead[nd] = true
		}
		if len(deadU) > 0 && u.touchesDead(deadU) {
			// Degrade to dimension-order residual spans (replaying any
			// self pairs host-side), then embed them on the survivors.
			u.Rebuild(s.cfg.Packets)
			asg, err := remap.Plan(s.cfg.Dims, sortedNodes(deadU), u.Endpoints())
			if err != nil {
				s.failUnit(u, err)
				continue
			}
			if asg.Degraded() {
				u.Phys = asg.Phys
			}
		}
		live = append(live, u)
	}
	units = live

	eb := s.cfg.Machine.ElemBytes
	if eb <= 0 {
		eb = 8
	}
	var recoveryBytes int64
	sets := make([]*core.SpanSet, len(units))
	spans := 0
	roundBudget := math.Inf(1)
	for i, u := range units {
		if u.budget < roundBudget {
			roundBudget = u.budget
		}
		sets[i] = u.SpanSet
		spans += len(u.Flows)
		if len(u.dead) > 0 {
			for _, sp := range u.Flows {
				recoveryBytes += int64(sp.Len * eb)
			}
		}
	}
	if spans == 0 {
		// Everything was local (self pairs only) — no engine needed.
		for _, u := range units {
			s.completeUnit(u)
		}
		return
	}

	// Route around links the fault view has already condemned and around
	// every node this round treats as dead (a remapped unit's own route
	// may otherwise thread a spare substitution through the corpse).
	var down func(from uint64, dim int) bool
	if s.faults != nil || len(roundDead) > 0 {
		down = func(from uint64, dim int) bool {
			if s.faults != nil && s.faults.PermanentlyDown(from, dim) {
				return true
			}
			return roundDead[from] || roundDead[from^(1<<uint(dim))]
		}
	}
	fr, err := core.NewFlowRun(s.cfg.Dims, sets, down, false)
	if err != nil {
		for _, u := range units {
			s.failUnit(u, err)
		}
		return
	}

	e, err := fabric.New(s.cfg.Backend, s.cfg.Dims, s.cfg.Machine)
	if err != nil {
		// The backend was validated at New; treat a late failure as fatal
		// for this round's jobs.
		for _, u := range units {
			s.failUnit(u, err)
		}
		return
	}
	if s.faults != nil {
		e.SetFaults(s.faults, fabric.RetryPolicy{})
	}
	if !math.IsInf(roundBudget, 1) {
		e.SetDeadline(roundBudget)
	}
	// The flow run places every delivered flow into its own unit — on a
	// failed run, the flows that completed.
	st, runErr := fr.Run(e)
	if s.faults != nil {
		// The machine's clock accumulates across rounds: advance the fault
		// view by this round's makespan, so fired kills become permanent
		// history and future windows shift closer.
		s.faults = s.faults.After(st.Time)
	}
	s.mu.Lock()
	s.metrics.Rounds++
	s.metrics.Fabric = s.metrics.Fabric.Merge(st)
	s.metrics.RecoveryBytes += recoveryBytes
	s.mu.Unlock()

	if runErr != nil {
		// Classify each unit: fail with checkpoints, or absorb and resume.
		// A node-down abort is recoverable hardware loss, not a job
		// failure: feed the circuit breaker, fold the casualties into
		// every unit's dead set, and re-queue survivors of the attempt
		// budget for a remapped recovery round under the backoff policy.
		var nde *fabric.NodeDownError
		if errors.As(runErr, &nde) {
			s.noteSuspects(nde.Nodes)
			for _, u := range units {
				u.stats = u.stats.Merge(st)
				u.attempts++
				u.dead = mergeDead(u.dead, nde.Nodes)
				if u.attempts >= s.cfg.MaxAttempts {
					s.failUnit(u, fmt.Errorf("%w (%d attempt(s)): %w", ErrAttempts, u.attempts, runErr))
					continue
				}
				u.budget -= st.Time
				if u.budget <= 0 {
					s.failUnit(u, runErr)
					continue
				}
				u.Rebuild(s.cfg.Packets)
				if len(u.Flows) == 0 {
					s.completeUnit(u)
					continue
				}
				s.requeueAfterCrash(u)
			}
			return
		}

		deadline := errors.Is(runErr, fabric.ErrDeadline)
		for _, u := range units {
			u.stats = u.stats.Merge(st)
			u.attempts++
			if !deadline {
				s.failUnit(u, runErr)
				continue
			}
			binding := u.budget <= roundBudget
			if binding || u.attempts >= s.cfg.MaxAttempts {
				cause := runErr
				if !binding {
					cause = fmt.Errorf("%w (%d attempt(s)): %w", ErrAttempts, u.attempts, runErr)
				}
				s.failUnit(u, cause)
				continue
			}
			u.budget -= st.Time
			if u.budget <= 0 {
				s.failUnit(u, runErr)
				continue
			}
			u.Rebuild(s.cfg.Packets)
			if len(u.Flows) == 0 {
				s.completeUnit(u)
				continue
			}
			s.mu.Lock()
			s.resume = append(s.resume, u)
			s.metrics.Resumed++
			s.cond.Signal()
			s.mu.Unlock()
		}
		return
	}
	for _, u := range units {
		u.stats = u.stats.Merge(st)
		s.completeUnit(u)
	}
}

// completeUnit publishes a finished unit to its tenants. The leader gets
// the unit's own arrays; every follower gets an independent deep copy —
// batched tenants must each own their result.
func (s *Service) completeUnit(u *unit) {
	after := u.Plan.After()
	for i, j := range u.jobs {
		loc := u.Loc
		if i > 0 {
			loc = copyLoc(u.Loc)
		}
		res := &core.Result{
			Dist:  &matrix.Dist{Layout: after, Local: loc[:after.N()]},
			Stats: u.stats,
		}
		j.finish(res, nil)
		s.mu.Lock()
		s.metrics.Completed++
		if i > 0 {
			s.metrics.Batched++
		}
		s.metrics.latencies = append(s.metrics.latencies, j.lat)
		s.mu.Unlock()
	}
}

// failUnit fails every tenant of a unit with its own resumable checkpoint:
// the leader owns the unit's arrays and delivery record, followers get deep
// copies — each tenant can hand its *core.ExecError checkpoint to
// core.Resume independently and finish element-exact on a private engine.
func (s *Service) failUnit(u *unit, cause error) {
	for i, j := range u.jobs {
		loc, del := u.Loc, u.Delivered
		if i > 0 {
			loc, del = copyLoc(u.Loc), u.Delivered.Clone()
		}
		cp := &core.Checkpoint{
			Plan: u.Plan, Src: u.Src, Loc: loc, Delivered: del,
			Stats: u.stats, At: u.stats.Time,
			Opts: core.ExecOptions{Backend: s.cfg.Backend},
			Dead: u.dead,
		}
		j.finish(nil, &core.ExecError{Checkpoint: cp, Err: cause})
		s.mu.Lock()
		s.metrics.Failed++
		s.metrics.latencies = append(s.metrics.latencies, j.lat)
		s.mu.Unlock()
	}
}

// copyLoc deep-copies a set of local arrays.
func copyLoc(loc [][]float64) [][]float64 {
	out := make([][]float64, len(loc))
	for i, a := range loc {
		if a != nil {
			out[i] = append([]float64(nil), a...)
		}
	}
	return out
}
