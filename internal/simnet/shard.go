// Sharded epoch-synchronized execution: the engine partitioned across P
// worker shards, bit-identical to the serial indexed scheduler.
//
// The scheduler exploits the cost model's lookahead: every transmission of
// at least one element takes at least minDur = SendTime(ElemBytes) virtual
// time, so an operation executed at time t cannot make any arrival land
// before t + minDur. Each round (epoch) the coordinator takes the global
// minimum pending action time T and sets a horizon T + minDur; every shard
// may then execute all of its own nodes' operations with action time in
// [T, horizon) independently, in shard-local (time, node id) order, because
// no operation another shard executes in the same window can deliver an
// arrival inside it. Cross-shard sends are staged in a per-shard outbox and
// committed to the destination queues at the epoch barrier.
//
// Determinism does not depend on the shard count. Queue contents are
// per-(sender, dimension) FIFO and each directed link has exactly one
// sender, so delivery order within a queue is the sender's program order
// regardless of when the barrier runs; RecvAny choices are ordered by the
// (arrival time, send action time, sender id) key (see Node.anyLess), a
// pure function of simulation state. The shard-invariance property test
// (shard_test.go) pins P ∈ {1, 2, 4, GOMAXPROCS} to byte-identical traces,
// Stats and link loads against both serial schedulers.
//
// Two accounting modes keep Stats and traces exact:
//
//   - Fast mode (no tracer, no faults, no deadline): statistics are either
//     order-invariant (integer counters, maxima) or per-node (copy time),
//     so shards accumulate locally and the coordinator folds at the end.
//
//   - Record mode (tracer, faults or a finite deadline): every operation
//     appends a commit record keyed by (action time, node id, per-node op
//     index) — exactly the serial execution order — and the coordinator
//     applies records (and flushes their trace events) in sorted key order
//     at each barrier. On a failure or deadline abort, records past the
//     canonical failure key are discarded, so Stats, LinkLoads and traces
//     match the serial engine even on abort paths. (Node programs in other
//     shards may have over-executed by up to one epoch — user-visible only
//     through side effects the program itself wrote; every engine-reported
//     artifact is exact.)
//
// A shard worker executes each of its nodes' operations exactly as the
// serial engine does — execute, then a direct switch into the node's
// coroutine until it parks at its next operation — so shards differ from
// the serial engine only in which operations they may run before a
// barrier, never in how an operation runs. Each worker also runs its own
// nodes' prologues before the first epoch.
package simnet

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"boolcube/internal/fabric"
)

// autoShardNodes is the node count at which SetShards(0) engages the
// sharded scheduler on its own: below it (8-cube experiments and the whole
// historical test suite) the serial indexed scheduler is already fast, and
// staying serial keeps small runs on the most-proven path.
const autoShardNodes = 2048

// maxAutoShards caps the automatic worker count; property tests may force
// more via SetShards.
const maxAutoShards = 16

// SetShards selects the sharded epoch-parallel scheduler for the next Run:
//
//	p == 0  automatic (the default): shard when the cube has at least
//	        autoShardNodes nodes, with up to GOMAXPROCS workers;
//	p >= 1  force the sharded scheduler with exactly p worker shards
//	        (p == 1 still uses epochs, barriers and commit records);
//	p < 0   force the serial indexed scheduler regardless of size.
//
// The sharded scheduler produces bit-identical traces, Stats, link loads
// and errors to the serial schedulers for any p — the shard-invariance
// property test enforces it — so the choice is purely about host
// performance. Machines whose cost model admits zero-duration transmissions
// (no per-element cost) fall back to the serial scheduler: the epoch
// horizon would be empty. Must be called before Run.
func (e *Engine) SetShards(p int) { e.shards = p }

// shardLookahead is the minimum virtual duration of any nonempty
// transmission under the machine model — the epoch width.
func (e *Engine) shardLookahead() float64 {
	dur, _ := e.params.SendTime(e.params.ElemBytes)
	return dur
}

// shardCount resolves the SetShards setting to a worker count for this
// run; 0 means "use the serial indexed scheduler".
func (e *Engine) shardCount() int {
	if e.shards < 0 || e.n == 0 {
		return 0
	}
	if e.shardLookahead() <= 0 {
		return 0 // zero-duration sends defeat the epoch horizon
	}
	p := e.shards
	if p == 0 {
		if e.nodesCount < autoShardNodes {
			return 0
		}
		// The worker count influences host scheduling only, never results
		// (shard-invariance property): sizing it to the host is safe.
		p = runtime.GOMAXPROCS(0) //cubevet:ignore detbreak -- worker count is result-invariant; the shard-invariance property test pins P to bit-identical outcomes
		if p > maxAutoShards {
			p = maxAutoShards
		}
	}
	if p > e.nodesCount {
		p = e.nodesCount
	}
	return p
}

// statAcc is a shard's fast-mode statistics accumulator: integer counters
// (exact under any summation order) and a local time maximum.
type statAcc struct {
	sends, startups, bytes, copyBytes int64
	retries, drops, faultedSends      int64
	maxTime                           float64
}

// opRec is one operation's record-mode commit record. Records are sorted
// by (act, node, opIdx) — the serial execution order — before application.
type opRec struct {
	act   float64
	node  int32
	opIdx int32
	sh    int32 // owning shard, to resolve the event range
	li    int32 // charged link index, -1 when no charge happened

	linkBytes int64 // link + volume deltas (all charges of the op summed)
	linkBusy  float64
	startups  int64
	copyBytes int64
	copyDt    float64
	timeBump  float64

	sends, retries, drops, faulted int32

	ev0, ev1 int32 // trace-event range in the owning shard's buffer
}

// staged is a cross-shard arrival waiting for the epoch barrier.
type staged struct {
	dest int32
	a    arrival
}

// failCand is a node failure observed during an epoch; the barrier
// surfaces the one with the smallest key, which is the failure the serial
// engine would have hit first.
type failCand struct {
	act   float64
	node  int32
	opIdx int32
	err   error
}

func (f *failCand) before(g *failCand) bool {
	if f.act != g.act {
		return f.act < g.act
	}
	if f.node != g.node {
		return f.node < g.node
	}
	return f.opIdx < g.opIdx
}

// recAfterFail reports whether a record orders strictly after a failure
// key, so commit stops there (inclusive commit: the failing operation's own
// record is applied).
func recAfterFail(r *opRec, f *failCand) bool {
	if r.act != f.act {
		return r.act > f.act
	}
	if r.node != f.node {
		return r.node > f.node
	}
	return r.opIdx > f.opIdx
}

type shard struct {
	run *shardRun
	id  int

	heap  *readyHeap
	out   []staged // cross-shard arrivals staged this epoch
	dirty []int32  // intra-shard nodes whose queues grew this epoch

	fails []failCand

	// Record mode: per-op commit records plus their trace events.
	recs   []opRec
	events []fabric.TraceEvent
	cur    *opRec // open record of the operation being executed

	acc        statAcc
	doneCount  int
	crashCount int // crash-stops fired in this shard this epoch
}

type shardRun struct {
	e         *Engine
	shards    []shard
	shardSize int
	lookahead float64
	horizon   float64 // current epoch's horizon (written at barriers only)
	record    bool
	sortBuf   []opRec
}

// beginOp opens an operation executed at action time t on nd: bumps the
// node's canonical op counter and, in record mode, opens a commit record.
func (sh *shard) beginOp(nd *Node, t float64) {
	nd.opIdx++
	nd.lastAct = t
	if sh.run.record {
		ev := int32(len(sh.events))
		sh.recs = append(sh.recs, opRec{
			act: t, node: int32(nd.id), opIdx: nd.opIdx, sh: int32(sh.id),
			li: -1, ev0: ev, ev1: ev,
		})
		sh.cur = &sh.recs[len(sh.recs)-1]
	}
}

func (sh *shard) endOp() { sh.cur = nil }

// busy reports whether the shard holds a node with a pending operation.
func (sh *shard) busy() bool { return sh.heap.min() != -1 }

// deliver routes one arrival from a node of this shard: intra-shard
// arrivals go straight into the destination queue (the shard loop is a
// serial engine over its own nodes), cross-shard arrivals wait for the
// barrier.
func (sh *shard) deliver(dest int, a arrival) {
	run := sh.run
	if ds := &run.shards[dest/run.shardSize]; ds != sh {
		sh.out = append(sh.out, staged{dest: int32(dest), a: a})
		return
	}
	run.e.nodes[dest].queues[a.fromDim].push(a)
	sh.dirty = append(sh.dirty, int32(dest))
}

// refresh re-keys node i in this shard's ready queue (mirrors
// Engine.refreshNode for the per-shard heap).
func (sh *shard) refresh(i int) {
	nd := sh.run.e.nodes[i]
	if nd.done || nd.crashed {
		sh.heap.remove(i)
		return
	}
	if t, ok := sh.run.e.actionTime(nd); ok {
		sh.heap.update(i, t)
	} else {
		sh.heap.remove(i)
	}
}

// runEpoch executes this shard's operations with action time inside
// [epoch start, horizon), in shard-local (time, node id) order — exactly
// the serial engine restricted to this shard's nodes.
func (sh *shard) runEpoch() {
	e := sh.run.e
	horizon := sh.run.horizon
	deadline := e.deadline
	h := sh.heap
	for {
		best := h.min()
		if best == -1 {
			break
		}
		nd := e.nodes[best]
		t := h.key[best]
		if t >= horizon {
			break
		}
		if t > deadline && nd.pending.kind != opDone {
			// The coordinator aborts once the global minimum passes the
			// deadline; everything at or under it still executes, exactly
			// as under the serial scheduler.
			break
		}
		if e.crashDue(best, t) {
			// Crash-stop at an operation boundary: no record, no resume —
			// the node's coroutine stays parked until drainAll unwinds it.
			e.crashNode(nd)
			sh.crashCount++
			h.remove(best)
			continue
		}
		sh.beginOp(nd, t)
		done := e.execute(nd)
		sh.endOp()
		if done {
			h.remove(best)
			nd.done = true
			sh.doneCount++
			continue
		}
		if nd.failure != nil {
			// Keep executing: a smaller-keyed failure may still be found
			// this epoch (the barrier surfaces the canonical minimum).
			nd.done = true
			h.remove(best)
			sh.fails = append(sh.fails, failCand{
				act: nd.lastAct, node: int32(nd.id), opIdx: nd.opIdx, err: nd.failure,
			})
		} else {
			sh.refresh(best)
		}
		for _, d := range sh.dirty {
			sh.refresh(int(d))
		}
		sh.dirty = sh.dirty[:0]
	}
}

// runSharded is the coordinator loop of the sharded scheduler.
func (e *Engine) runSharded(p int) error {
	run := &shardRun{
		e:         e,
		shards:    make([]shard, p),
		shardSize: (e.nodesCount + p - 1) / p,
		lookahead: e.shardLookahead(),
		record:    e.tracer != nil || e.faults != nil || !math.IsInf(e.deadline, 1),
	}
	for i := range run.shards {
		sh := &run.shards[i]
		sh.run, sh.id = run, i
		sh.heap = newReadyHeap(e.nodesCount)
	}
	for i, nd := range e.nodes {
		nd.sh = &run.shards[i/run.shardSize]
	}
	// Each worker runs its own nodes' prologues, in id order.
	run.each(nil, func(sh *shard) {
		lo := min(sh.id*run.shardSize, e.nodesCount)
		for _, nd := range e.nodes[lo:min(lo+run.shardSize, e.nodesCount)] {
			nd.resume(fabric.Msg{})
		}
	})
	// Surface prologue failures in node-id order, matching the serial
	// schedulers' scan.
	for i, nd := range e.nodes {
		if err := e.checkFailure(nd); err != nil {
			return err
		}
		if t, ok := e.actionTime(nd); ok {
			nd.sh.heap.update(i, t)
		}
	}
	live := e.nodesCount
	for live > 0 {
		minT, minNode := run.globalMin()
		if minNode == -1 {
			fired, crashed := e.crashQuiesce()
			live -= fired
			if crashed {
				err := e.nodeDownError()
				e.drainAll()
				return err
			}
			err := e.deadlockError()
			e.drainAll()
			return err
		}
		if minT > e.deadline && e.nodes[minNode].pending.kind != opDone {
			err := e.deadlineError(e.nodes[minNode], minT)
			e.drainAll()
			return err
		}
		run.horizon = minT + run.lookahead
		run.each((*shard).busy, (*shard).runEpoch)
		// Barrier. First route staged cross-shard arrivals — per queue
		// (one sender, one dimension) the outbox preserves sender program
		// order, so delivery order matches the serial engine's.
		for i := range run.shards {
			sh := &run.shards[i]
			for _, st := range sh.out {
				if st.a.at < run.horizon {
					// A transmission shorter than the lookahead crossed a
					// shard boundary — only possible for an empty payload,
					// which the horizon argument cannot cover. Refuse
					// loudly rather than risk a silent divergence.
					run.commit(nil)
					err := fmt.Errorf("simnet: internal: zero-duration cross-shard transmission (node %d, dim %d, t=%g) defeats the epoch horizon %g; run this program with SetShards(-1)",
						st.dest, st.a.fromDim, st.a.at, run.horizon)
					e.drainAll()
					return err
				}
				dest := e.nodes[st.dest]
				dest.queues[st.a.fromDim].push(st.a)
				dest.sh.refresh(int(st.dest))
			}
			sh.out = sh.out[:0]
		}
		// Surface the canonical (smallest-keyed) failure, if any.
		var fc *failCand
		for i := range run.shards {
			for j := range run.shards[i].fails {
				if f := &run.shards[i].fails[j]; fc == nil || f.before(fc) {
					fc = f
				}
			}
		}
		run.commit(fc)
		if fc != nil {
			err := fc.err
			if !run.record {
				run.foldFast()
			}
			e.drainAll()
			return err
		}
		for i := range run.shards {
			live -= run.shards[i].doneCount + run.shards[i].crashCount
			e.crashedCount += run.shards[i].crashCount
			run.shards[i].doneCount, run.shards[i].crashCount = 0, 0
		}
	}
	if !run.record {
		run.foldFast()
	}
	if e.crashedCount > 0 {
		err := e.nodeDownError()
		e.drainAll()
		return err
	}
	if e.stats.Time < e.maxResourceTime() {
		e.stats.Time = e.maxResourceTime()
	}
	return nil
}

// each runs f on every shard for which want reports true (every shard when
// want is nil) and returns when all are done: inline with one worker,
// otherwise one goroutine per shard.
func (run *shardRun) each(want func(*shard) bool, f func(*shard)) {
	if len(run.shards) == 1 {
		f(&run.shards[0])
		return
	}
	var wg sync.WaitGroup
	for i := range run.shards {
		if want != nil && !want(&run.shards[i]) {
			continue
		}
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			f(sh)
		}(&run.shards[i])
	}
	wg.Wait()
}

// globalMin returns the smallest (action time, node id) pending key across
// all shards, or (-1) when nothing is executable.
func (run *shardRun) globalMin() (float64, int) {
	bestT, best := math.Inf(1), -1
	for i := range run.shards {
		h := run.shards[i].heap
		id := h.min()
		if id == -1 {
			continue
		}
		t := h.key[id]
		if best == -1 || t < bestT || (t == bestT && id < best) {
			bestT, best = t, id
		}
	}
	return bestT, best
}

// commit applies this epoch's records in canonical (act, node, opIdx)
// order — the serial execution order — stopping after the failure key when
// one is given (inclusive: the failing op's own record lands). No-op in
// fast mode.
func (run *shardRun) commit(fc *failCand) {
	if !run.record {
		return
	}
	all := run.sortBuf[:0]
	for i := range run.shards {
		all = append(all, run.shards[i].recs...)
	}
	slices.SortFunc(all, func(a, b opRec) int {
		if a.act != b.act {
			if a.act < b.act {
				return -1
			}
			return 1
		}
		if a.node != b.node {
			return int(a.node) - int(b.node)
		}
		return int(a.opIdx) - int(b.opIdx)
	})
	for i := range all {
		r := &all[i]
		if fc != nil && recAfterFail(r, fc) {
			break
		}
		run.applyRec(r)
	}
	run.sortBuf = all[:0]
	for i := range run.shards {
		run.shards[i].recs = run.shards[i].recs[:0]
		run.shards[i].events = run.shards[i].events[:0]
	}
}

// applyRec folds one committed record into the engine's statistics, link
// aggregates and tracer — the exact effects the serial engine applied
// inline while executing that operation.
func (run *shardRun) applyRec(r *opRec) {
	e := run.e
	if r.li >= 0 {
		e.linkUsed[r.li] = true
		e.linkBytes[r.li] += r.linkBytes
		e.linkBusy[r.li] += r.linkBusy
		if e.linkBytes[r.li] > e.stats.MaxLinkBytes {
			e.stats.MaxLinkBytes = e.linkBytes[r.li]
		}
		if e.linkBusy[r.li] > e.stats.MaxLinkBusy {
			e.stats.MaxLinkBusy = e.linkBusy[r.li]
		}
	}
	e.stats.Sends += int64(r.sends)
	e.stats.Startups += r.startups
	e.stats.Bytes += r.linkBytes
	e.stats.Retries += int64(r.retries)
	e.stats.Drops += int64(r.drops)
	e.stats.FaultedSends += int64(r.faulted)
	e.stats.CopyBytes += r.copyBytes
	e.copyTime[r.node] += r.copyDt
	if r.timeBump > e.stats.Time {
		e.stats.Time = r.timeBump
	}
	if e.tracer != nil {
		evs := run.shards[r.sh].events[r.ev0:r.ev1]
		for i := range evs {
			e.tracer.Record(evs[i])
		}
	}
}

// foldFast folds fast-mode shard accumulators into the engine's Stats. The
// counters are exact sums; the maxima are order-invariant, so taking them
// over the final link aggregates equals the serial engine's running
// maxima on any run that completed cleanly.
func (run *shardRun) foldFast() {
	e := run.e
	for i := range run.shards {
		a := &run.shards[i].acc
		e.stats.Sends += a.sends
		e.stats.Startups += a.startups
		e.stats.Bytes += a.bytes
		e.stats.CopyBytes += a.copyBytes
		e.stats.Retries += a.retries
		e.stats.Drops += a.drops
		e.stats.FaultedSends += a.faultedSends
		if a.maxTime > e.stats.Time {
			e.stats.Time = a.maxTime
		}
	}
	for li, used := range e.linkUsed {
		if !used {
			continue
		}
		if e.linkBytes[li] > e.stats.MaxLinkBytes {
			e.stats.MaxLinkBytes = e.linkBytes[li]
		}
		if e.linkBusy[li] > e.stats.MaxLinkBusy {
			e.stats.MaxLinkBusy = e.linkBusy[li]
		}
	}
}
