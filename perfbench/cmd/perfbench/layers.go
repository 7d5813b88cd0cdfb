package main

import (
	"fmt"
	"time"

	bc "boolcube"
	"boolcube/internal/comm"
	"boolcube/internal/core"
	"boolcube/internal/fabric"
	"boolcube/internal/field"
	"boolcube/internal/plan"
	"boolcube/internal/router"
	"boolcube/internal/simnet"
)

// cacheHitCalls is how many warm plan-cache lookups one sample averages.
const cacheHitCalls = 64

// sink keeps address arithmetic from being optimized away.
var sink uint64

// planConfig is the plan configuration the public Options produce for a
// cell (the service compiles with the same machine and default packets).
func (c *cell) planConfig() plan.Config {
	return plan.Config{Machine: c.machine}
}

// layerRun replays one op's work layer by layer through the exported calls
// of each internal package, on the same plan and data as the public call.
type layerRun struct {
	tr  *tracer
	ls  *layerSamples
	ci  int
	c   *cell
	op  int // op id
	par int // enclosing op span
	// errs records layer calls that failed, by cell.
	errs map[string]string
	// notes records what the engine-only replays of a failing cell did.
	notes map[string]string
}

func (lr *layerRun) timed(name string, f func()) time.Duration {
	return lr.tr.timed(name, lr.par, lr.op, f)
}

// payloads holds one op's gathered payloads in the shape its executor uses.
type payloads struct {
	// exchange plans: per source node, the payload to each destination
	// (self included), in mv.Destinations order with self last.
	dests [][]uint64
	bufs  [][][]float64
	// flow plans: one buffer per plan flow, plus self payloads per node.
	flows [][]float64
	self  [][]float64
}

// replay runs every layer for one op. res is the public call's result
// (nil if it failed), used for the Result.Stats counts.
func (lr *layerRun) replay(res *bc.Result) {
	c := lr.c
	cfg := c.planConfig()
	lr.addr(c.before, c.after)

	lr.add("plan.compile_ms", ms(lr.timed("plan.Compile", func() {
		if _, err := plan.Compile(c.alg, c.before, c.after, cfg); err != nil {
			lr.fail("plan.Compile", err)
		}
	})))
	lr.add("plan.choose_ms", ms(lr.timed("plan.Choose", func() {
		if _, err := plan.Choose(c.before, c.after, cfg); err != nil {
			lr.fail("plan.Choose", err)
		}
	})))
	// One untimed lookup makes the key warm (the one-shot workload never
	// fills the cache itself).
	p, err := plan.Default.Compile(c.alg, c.before, c.after, cfg)
	if err != nil {
		lr.fail("plan.Default.Compile", err)
		return
	}
	d := lr.timed("plan.Default.Compile", func() {
		for i := 0; i < cacheHitCalls; i++ {
			var err error
			if p, err = plan.Default.Compile(c.alg, c.before, c.after, cfg); err != nil {
				lr.fail("plan.Default.Compile", err)
				return
			}
		}
	})
	lr.add("plan.cache_hit_us", float64(d)/float64(time.Microsecond)/cacheHitCalls)
	if p.Kind() == plan.KindMixedProgram {
		lr.fail("layers", fmt.Errorf("plan kind %v has no layer replay", p.Kind()))
		return
	}

	pl := newPayloads(p)
	gather := lr.timed("plan.Gather", func() { pl.gather(p, c.src) })
	audit := lr.timed("fabric.Checksum", func() { sink += pl.audit(p) })

	// Automatic and serial engines run in the order A B B A, so neither
	// side gains from running second; each figure is the mean of its two.
	run1, _, ok1 := lr.engineRun(p, pl, 0, "simnet.run")
	serial1, _, ok2 := lr.engineRun(p, pl, -1, "simnet.serial_run")
	serial2, _, ok3 := lr.engineRun(p, pl, -1, "simnet.serial_run")
	run2, _, ok4 := lr.engineRun(p, pl, 0, "simnet.run")
	run, runOK := (run1+run2)/2, ok1 && ok4
	serial, serialOK := (serial1+serial2)/2, ok2 && ok3
	if serialOK {
		lr.add("simnet.serial_run_ms", ms(serial))
	}
	if runOK && serialOK {
		lr.add("simnet.shard_speedup", float64(serial)/float64(run))
	}
	spawnEng, err := simnet.New(p.NDims(), cfg.Machine)
	if err == nil {
		lr.add("simnet.spawn_ms", ms(lr.timed("simnet.Engine.Run(empty)", func() {
			err = spawnEng.Run(func(fabric.Node) {})
		})))
	}
	if err != nil {
		lr.fail("simnet.spawn", err)
	}

	out := newLocal(p.After())
	scatter := lr.timed("plan.Scatter", func() { pl.scatter(p, out) })
	lr.add("plan.gather_ms", ms(gather))
	lr.add("plan.scatter_ms", ms(scatter))
	lr.add("fabric.audit_ms", ms(audit))

	var solo *core.Result
	a0 := heapAllocated()
	exec := lr.timed("core.Execute", func() {
		solo, err = core.Execute(p, c.src, nil)
	})
	alloc := heapAllocated() - a0
	if err != nil {
		lr.fail("core.Execute", err)
		return
	}
	lr.add("core.execute_ms", ms(exec))
	lr.add("core.alloc_mb", float64(alloc)/(1<<20))
	if runOK {
		lr.add("simnet.run_ms", ms(run))
		lr.add("core.self_ms", ms(exec-gather-scatter-audit-run))
	}
	st := solo.Stats
	if res != nil {
		st = res.Stats
	}
	if st.Sends > 0 {
		lr.add("simnet.host_ns_per_send", float64(exec)/float64(st.Sends))
	}
	lr.add("simnet.sends", float64(st.Sends))
	lr.add("simnet.startups", float64(st.Startups))
	lr.add("simnet.bytes_mb", float64(st.Bytes)/(1<<20))
	// The checker's Dist.Verify, on the public call's result (the service
	// has none here, so its solo replay's result stands in).
	checked := solo.Dist
	if res != nil {
		checked = res.Dist
	}
	lr.add("matrix.verify_ms", ms(lr.timed("matrix.Dist.Verify", func() {
		if err := checked.Verify(c.want); err != nil {
			lr.fail("matrix.Dist.Verify", err)
		}
	})))
}

func (lr *layerRun) add(name string, v float64) { lr.ls.add(name, lr.ci, v) }

func (lr *layerRun) fail(layer string, err error) {
	key := lr.c.name + " " + layer
	if _, ok := lr.errs[key]; !ok {
		lr.errs[key] = err.Error()
	}
}

// addr times Layout.ProcOf + LocalOf over every element of both layouts.
func (lr *layerRun) addr(layouts ...field.Layout) {
	elems := 0
	d := lr.timed("field.Layout.ProcOf+LocalOf", func() {
		for _, l := range layouts {
			if err := l.Validate(); err != nil {
				lr.fail("field.Layout.Validate", err)
				continue
			}
			rows, cols := uint64(1)<<uint(l.P), uint64(1)<<uint(l.Q)
			for u := uint64(0); u < rows; u++ {
				for v := uint64(0); v < cols; v++ {
					sink += l.ProcOf(u, v) + l.LocalOf(u, v)
				}
			}
			elems += int(rows * cols)
		}
	})
	lr.add("field.addr_ns_per_elem", float64(d)/float64(elems))
}

// newPayloads allocates the gather buffers for one op (outside any span).
func newPayloads(p *plan.Plan) *payloads {
	mv := p.Moves()
	pl := &payloads{}
	n := p.Before().N()
	if p.Kind() == plan.KindExchange {
		pl.dests = make([][]uint64, n)
		pl.bufs = make([][][]float64, n)
		for sp := 0; sp < n; sp++ {
			id := uint64(sp)
			ds := append(append([]uint64(nil), mv.Destinations(id)...), id)
			pl.dests[sp] = ds
			pl.bufs[sp] = make([][]float64, len(ds))
			for k, dp := range ds {
				pl.bufs[sp][k] = make([]float64, mv.PayloadLen(id, dp))
			}
		}
		return pl
	}
	for _, f := range p.Flows() {
		pl.flows = append(pl.flows, make([]float64, f.Len))
	}
	pl.self = make([][]float64, n)
	for sp := 0; sp < n; sp++ {
		pl.self[sp] = make([]float64, mv.PayloadLen(uint64(sp), uint64(sp)))
	}
	return pl
}

// gather materializes every payload of the op: Moves.GatherInto per
// (source, destination) pair, or GatherRangeInto per flow.
func (pl *payloads) gather(p *plan.Plan, src *bc.Dist) {
	mv := p.Moves()
	if p.Kind() == plan.KindExchange {
		for sp, ds := range pl.dests {
			for k, dp := range ds {
				mv.GatherInto(uint64(sp), src.Local[sp], dp, pl.bufs[sp][k])
			}
		}
		return
	}
	for i, f := range p.Flows() {
		mv.GatherRangeInto(f.Src, src.Local[f.Src], f.Dst, f.Off, f.Len, pl.flows[i])
	}
	for sp := range pl.self {
		mv.GatherInto(uint64(sp), src.Local[sp], uint64(sp), pl.self[sp])
	}
}

// audit checksums every payload: fabric.Checksum per exchange block, and a
// fabric.Summer fed packet by packet per flow, as the router does.
func (pl *payloads) audit(p *plan.Plan) uint64 {
	var s uint64
	if p.Kind() == plan.KindExchange {
		for _, bs := range pl.bufs {
			for _, b := range bs {
				s += fabric.Checksum(b)
			}
		}
		return s
	}
	for i, f := range p.Flows() {
		var sum fabric.Summer
		data := pl.flows[i]
		pk := max(f.Packets, 1)
		for k := 0; k < pk; k++ {
			sum.Add(data[k*len(data)/pk : (k+1)*len(data)/pk])
		}
		s += sum.Sum()
	}
	return s
}

// scatter places every payload into the destination arrays: Moves.Scatter
// per pair, or ScatterRange per flow.
func (pl *payloads) scatter(p *plan.Plan, out [][]float64) {
	mv := p.Moves()
	if p.Kind() == plan.KindExchange {
		for sp, ds := range pl.dests {
			for k, dp := range ds {
				if int(dp) < len(out) {
					mv.Scatter(dp, out[dp], uint64(sp), pl.bufs[sp][k])
				}
			}
		}
		return
	}
	for i, f := range p.Flows() {
		mv.ScatterRange(f.Dst, out[f.Dst], f.Src, f.Off, pl.flows[i])
	}
	for sp, b := range pl.self {
		if sp < len(out) {
			mv.Scatter(uint64(sp), out[sp], uint64(sp), b)
		}
	}
}

func newLocal(l field.Layout) [][]float64 {
	out := make([][]float64, l.N())
	for i := range out {
		out[i] = make([]float64, l.LocalSize())
	}
	return out
}

// diagnose replays a failing cell's messages on fresh engines, automatic
// shards and serial, and notes what each did; it adds no samples, so every
// per-layer metric covers the same cells as the end-to-end latency.
func (lr *layerRun) diagnose() {
	c := lr.c
	p, err := plan.Default.Compile(c.alg, c.before, c.after, c.planConfig())
	if err != nil {
		lr.fail("plan.Default.Compile", err)
		return
	}
	pl := newPayloads(p)
	pl.gather(p, c.src)
	for _, shards := range []int{0, -1} {
		name := fmt.Sprintf("simnet.run(SetShards(%d))", shards)
		if _, st, ok := lr.engineRun(p, pl, shards, name); ok {
			lr.notes[c.name+" "+name] = fmt.Sprintf("ok: %d sends, %d startups, %.1f sim_ms", st.Sends, st.Startups, st.Time/1000)
		}
	}
}

// engineRun replays the op's messages alone on a fresh engine, payloads
// prepared beforehand: router.Run for flow plans, comm.ExchangeBlocks
// inside Engine.Run for exchange plans. shards is passed to SetShards
// (0 automatic, -1 serial). Only the engine call is timed.
func (lr *layerRun) engineRun(p *plan.Plan, pl *payloads, shards int, name string) (time.Duration, fabric.Stats, bool) {
	e, err := simnet.New(p.NDims(), p.Config().Machine)
	if err != nil {
		lr.fail(name, err)
		return 0, fabric.Stats{}, false
	}
	e.SetShards(shards)
	var d time.Duration
	if p.Kind() == plan.KindExchange {
		blocks := make([][]comm.Block, e.Nodes())
		for sp, ds := range pl.dests {
			for k, dp := range ds[:len(ds)-1] { // self stays home
				blocks[sp] = append(blocks[sp], comm.Block{Src: uint64(sp), Dst: dp, Data: pl.bufs[sp][k]})
			}
		}
		dims, strat := p.Dims(), p.Config().Strategy
		d = lr.timed(name, func() {
			err = e.Run(func(nd fabric.Node) {
				comm.ExchangeBlocks(nd, dims, strat, blocks[nd.ID()])
			})
		})
	} else {
		flows := make([]router.Flow, len(p.Flows()))
		for i, f := range p.Flows() {
			flows[i] = router.Flow{Src: f.Src, Dst: f.Dst, Dims: f.Dims, Packets: f.Packets,
				Data: append([]float64(nil), pl.flows[i]...)}
		}
		d = lr.timed(name, func() {
			_, err = router.Run(e, flows)
		})
	}
	if err != nil {
		lr.fail(name, err)
		return d, fabric.Stats{}, false
	}
	return d, e.Stats(), true
}

// regret simulates every explicit candidate AlgorithmAuto considers for
// the cell's layout pair and returns the chosen algorithm's simulated time
// over the best candidate's.
func (lr *layerRun) regret() {
	c := lr.c
	cfg := c.planConfig()
	var ratio float64
	lr.timed("plan.regret", func() {
		chosen, err := plan.Choose(c.before, c.after, cfg)
		if err != nil {
			lr.fail("plan.Choose", err)
			return
		}
		cands := []plan.Algorithm{plan.Exchange, plan.SBnT}
		if field.Classify(c.before, c.after).Pattern == field.Pairwise {
			cands = append(cands, plan.SPT, plan.DPT, plan.MPT)
		}
		best, mine := 0.0, 0.0
		for _, a := range cands {
			t, ok := simTime(a, c, cfg)
			if !ok {
				continue
			}
			if best == 0 || t < best {
				best = t
			}
			if a == chosen {
				mine = t
			}
		}
		if best > 0 && mine > 0 {
			ratio = mine / best
		}
	})
	if ratio > 0 {
		lr.add("plan.auto_regret", ratio)
	}
}

// simTime compiles and executes one explicit algorithm, returning its
// simulated time; algorithms that refuse or panic on the pair are skipped.
func simTime(a plan.Algorithm, c *cell, cfg plan.Config) (t float64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	p, err := plan.Compile(a, c.before, c.after, cfg)
	if err != nil {
		return 0, false
	}
	res, err := core.Execute(p, c.src, nil)
	if err != nil {
		return 0, false
	}
	return res.Stats.Time, true
}
