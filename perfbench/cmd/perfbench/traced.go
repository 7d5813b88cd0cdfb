package main

import (
	"time"

	bc "boolcube"
)

// snapshotCalls is how many Metrics snapshots metrics_snapshot_us takes
// the median of.
const snapshotCalls = 5

// runTraced is the per-layer run. Every op runs untraced and then traced:
// a span around the public call followed by a layer-by-layer replay of the
// op (the service runs an untraced closed-loop pass, then a traced one).
// It reports per-layer metrics plus the tracing overhead (traced against
// untraced latency).
func runTraced(cfg runConfig) (*result, error) {
	tr := newTracer()
	b, err := newBench(cfg, time.Now())
	if err != nil {
		return nil, err
	}
	defer b.close()
	r := &result{}
	b.describe(r)
	ls := newLayerSamples(len(b.cells))
	for _, c := range b.scatterSpans {
		tr.record("matrix.Scatter", 0, 0, c[0], c[1])
		ls.add("matrix.scatter_ms", 0, ms(c[1].Sub(c[0])))
	}
	errs, notes := map[string]string{}, map[string]string{}
	n := b.w.traceRounds * len(b.cells)
	var untraced, traced *opStats
	if b.w.kind == opService {
		n = b.serviceTraceJobs()
		untraced = b.runService(n, nil)
		traced = b.runServiceTraced(n, tr, ls, errs, notes)
	} else {
		untraced, traced = b.runOpsTraced(n, tr, ls, errs, notes)
	}
	sum := summarize(b.names, untraced.lat)
	base, withTrace := sum.p50, summarize(b.names, traced.lat).p50
	ls.fill(r)
	r.set("trace_overhead_pct", 100*(withTrace-base)/base)

	path, err := tr.write(cfg.out, b.w.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.Attempted = untraced.attempted + traced.attempted
	r.Failed = untraced.failed + traced.failed
	wrong := append(untraced.wrong, traced.wrong...)
	r.Correct = len(wrong) == 0
	if len(wrong) > 0 {
		r.note("wrong", firstN(wrong, 5))
	}
	r.note("ops", n)
	r.note("samples_per_cell", sum.perCell)
	r.note("tail_percentile", sum.tailPct)
	r.note("op_errors", traced.errs)
	r.note("layer_errors", errs)
	r.note("layer_notes", notes)
	r.note("spans", len(tr.spans))
	r.note("spans_file", path)
	r.note("span_self_ms", tr.selfTimes())
	r.note("untraced_p50_ms", base)
	r.note("traced_p50_ms", withTrace)
	return r, nil
}

// runOpsTraced runs n op pairs: an untraced op, timed as in the end-to-end
// run, then the same op traced — a root span holding the public call and
// the layer-by-layer replay of the op. Pairing the two keeps host drift out
// of the tracing-overhead comparison.
func (b *bench) runOpsTraced(n int, tr *tracer, ls *layerSamples, errs, notes map[string]string) (untraced, traced *opStats) {
	untraced, traced = newOpStats(len(b.cells)), newOpStats(len(b.cells))
	public := "boolcube.CompiledTranspose.Execute"
	if b.w.kind == opOneshot {
		public = "boolcube.Transpose"
	}
	regretDone := make([]bool, len(b.cells))
	for i := 0; i < n; i++ {
		ci := b.order[i%len(b.order)]
		c := b.cells[ci]
		b.runOp(untraced, ci)

		op := i + 1
		root := tr.begin("op", 0, op)
		var res *bc.Result
		var err error
		d := tr.timed(public, root, op, func() { res, err = b.do(c) })
		traced.attempted++
		lr := &layerRun{tr: tr, ls: ls, ci: ci, c: c, op: op, par: root, errs: errs, notes: notes}
		if err != nil {
			traced.fail(c, err)
			// A failing cell's messages are still replayed on bare
			// engines, to show where it fails.
			lr.diagnose()
		} else {
			traced.lat[ci] = append(traced.lat[ci], ms(d))
			if err := c.check(res, true); err != nil {
				traced.wrong = append(traced.wrong, err.Error())
			}
			lr.replay(res)
		}
		if c.alg == bc.AlgorithmAuto && !regretDone[ci] {
			regretDone[ci] = true
			lr.regret()
		}
		tr.end(root)
	}
	return untraced, traced
}

// serviceTraceJobs is the job count of each service pass in the traced
// run.
func (b *bench) serviceTraceJobs() int {
	return 64 * b.w.traceRounds * len(b.cells)
}

// runServiceTraced is the service closed loop with spans around Submit and
// each job, followed by per-spec layer replays and the service counters.
func (b *bench) runServiceTraced(n int, tr *tracer, ls *layerSamples, errs, notes map[string]string) *opStats {
	m0 := b.svc.Metrics()
	s := b.runServiceSpans(n, tr, func(ci int, d time.Duration) {
		ls.add("service.submit_us", ci, float64(d)/float64(time.Microsecond))
	})
	m1 := b.svc.Metrics()
	if rounds := m1.Rounds - m0.Rounds; rounds > 0 {
		ls.add("service.jobs_per_round", 0, float64(m1.Completed-m0.Completed)/float64(rounds))
	}
	if done := m1.Completed - m0.Completed; done > 0 {
		ls.add("service.batched_frac", 0, float64(m1.Batched-m0.Batched)/float64(done))
	}
	// Per-spec layer replays; the solo core.Execute median of each spec is
	// the no-contention baseline for service.wait_ms.
	op := n
	for round := 0; round < b.w.traceRounds; round++ {
		for ci, c := range b.cells {
			op++
			root := tr.begin("replay", 0, op)
			lr := &layerRun{tr: tr, ls: ls, ci: ci, c: c, op: op, par: root, errs: errs, notes: notes}
			lr.replay(nil)
			tr.end(root)
		}
	}
	solo := make([]float64, len(b.cells))
	if ex := ls.by["core.execute_ms"]; ex != nil {
		for ci := range b.cells {
			if len(ex[ci]) > 0 {
				solo[ci] = median(append([]float64(nil), ex[ci]...))
			}
		}
	}
	for ci, xs := range s.lat {
		for _, lat := range xs {
			ls.add("service.wait_ms", ci, lat-solo[ci])
		}
	}
	snaps := make([]float64, 0, snapshotCalls)
	for i := 0; i < snapshotCalls; i++ {
		d := tr.timed("service.Service.Metrics", 0, op+1, func() {
			m := b.svc.Metrics()
			sink += uint64(m.LatencyPercentile(99))
		})
		snaps = append(snaps, float64(d)/float64(time.Microsecond))
	}
	ls.add("service.metrics_snapshot_us", 0, median(snaps))
	return s
}

// runServiceSpans runs the traced closed loop, recording a span per job
// (Submit to Wait) with its Submit call as a child.
func (b *bench) runServiceSpans(n int, tr *tracer, submit func(ci int, d time.Duration)) *opStats {
	jobSpans := map[int]int{}
	seq := 0
	return b.runService(n, &serviceHooks{submitted: func(ci int, t0 time.Time, d time.Duration) int {
		seq++
		root := tr.record("service.job", 0, seq, t0, t0)
		tr.record("service.Service.Submit", root, seq, t0, t0.Add(d))
		jobSpans[seq] = root
		submit(ci, d)
		return seq
	}, finished: func(id int) {
		sp := &tr.spans[jobSpans[id]-1]
		sp.End = tr.us(time.Now())
		delete(jobSpans, id)
	}})
}
