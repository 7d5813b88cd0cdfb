package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"time"

	bc "boolcube"
)

// setupRuns is how many fresh processes measure set-up; setup_s is their
// median. Each starts cold (empty plan cache, fresh heap), so every one
// pays the same compiles.
const setupRuns = 3

// cell is a cellDef with its set-up state.
type cell struct {
	cellDef
	src  *bc.Dist
	want *bc.Matrix
	ct   *bc.CompiledTranspose // replay cells; solo reference plan on service
	spec bc.JobSpec            // service cells
	// ref is the warm-up op's Stats; every later op must match it exactly.
	ref    bc.Stats
	refOK  bool
	refErr string // warm-up error text when the cell fails
}

// bench is a workload after set-up.
type bench struct {
	cfg   runConfig
	w     *workload
	cells []*cell
	order []int
	svc   *bc.Service
	// draw is the service workload's seeded spec sequence.
	draw  *rand.Rand
	setup time.Duration
	// scatterSpans are the set-up's matrix.Scatter calls (start, end).
	scatterSpans [][2]time.Time
	names        []string
}

// do runs one op of a replay or one-shot cell, turning a panic into an
// error so the harness counts the op as failed instead of crashing.
func (b *bench) do(c *cell) (res *bc.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if b.w.kind == opOneshot {
		return bc.Transpose(c.src, c.after, c.options())
	}
	return c.ct.Execute(c.src)
}

// check verifies a result element-exact against the transposed input and,
// for deterministic cells, its Stats against the warm-up reference.
func (c *cell) check(res *bc.Result, stats bool) error {
	if err := res.Dist.Verify(c.want); err != nil {
		return fmt.Errorf("cell %s: wrong result: %w", c.name, err)
	}
	if stats && c.refOK && res.Stats != c.ref {
		return fmt.Errorf("cell %s: Stats %+v differ from the reference %+v", c.name, res.Stats, c.ref)
	}
	return nil
}

// newBench performs set-up: inputs from the seed, Scatter, compiles,
// service start and one warm-up op per cell. The set-up time is measured
// from start.
func newBench(cfg runConfig, start time.Time) (*bench, error) {
	w := cfg.workload
	rng := rand.New(rand.NewSource(cfg.seed))
	b := &bench{cfg: cfg, w: w, draw: rand.New(rand.NewSource(cfg.seed ^ 0x5eed))}
	type input struct {
		src  *bc.Dist
		want *bc.Matrix
	}
	inputs := map[string]input{}
	for _, d := range w.cells {
		in, ok := inputs[d.source]
		if !ok {
			m := seededMatrix(rng, d.before.P, d.before.Q)
			t := time.Now()
			src := bc.Scatter(m, d.before)
			b.scatterSpans = append(b.scatterSpans, [2]time.Time{t, time.Now()})
			in = input{src: src, want: m.Transposed()}
			inputs[d.source] = in
		}
		b.cells = append(b.cells, &cell{cellDef: d, src: in.src, want: in.want})
		b.names = append(b.names, d.name)
	}
	b.order = rng.Perm(len(b.cells)) // the seeded order ops cycle through
	if w.kind == opService {
		svc, err := bc.NewService(bc.ServiceConfig{Dims: serviceDims})
		if err != nil {
			return nil, err
		}
		b.svc = svc
	}
	for _, c := range b.cells {
		switch w.kind {
		case opReplay, opService:
			ct, err := bc.Compile(c.before, c.after, c.options())
			if err != nil {
				return nil, fmt.Errorf("cell %s: compile: %w", c.name, err)
			}
			c.ct = ct
		}
		if w.kind == opService {
			c.spec = bc.JobSpec{Alg: c.alg, Before: c.before, After: c.after, Src: c.src}
		}
	}
	// One warm-up op per cell, in the seeded order. On the service the
	// warm-up is one job per spec plus a solo replay of the spec's plan,
	// whose simulated Stats are the spec's reference.
	warm := make([][]*bc.Result, len(b.cells))
	for _, i := range b.order {
		c := b.cells[i]
		var res *bc.Result
		var err error
		if w.kind == opService {
			var j *bc.Job
			if j, err = b.svc.Submit(c.spec); err == nil {
				if res, err = j.Wait(); err == nil {
					warm[i] = append(warm[i], res)
					res, err = c.ct.Execute(c.src)
				}
			}
		} else {
			res, err = b.do(c)
		}
		if err != nil {
			c.refErr = err.Error()
			continue
		}
		c.ref, c.refOK = res.Stats, true
		warm[i] = append(warm[i], res)
	}
	b.setup = time.Since(start)
	if w.kind == opService {
		// A long-lived service reaches its steady state (heap, pools,
		// goroutine stacks) before it is measured: a closed-loop burst
		// from its own draw, so the timed phase's draw is unchanged. Only
		// the burst's timed window counts toward set-up.
		timedDraw := b.draw
		b.draw = rand.New(rand.NewSource(cfg.seed ^ 0x3a3a))
		s := b.runService(serviceWarmJobs, nil)
		b.draw = timedDraw
		b.setup += s.total().wall
		if s.failed > 0 || len(s.wrong) > 0 {
			return nil, fmt.Errorf("service warm-up: %d failed, wrong: %v", s.failed, firstN(s.wrong, 3))
		}
	}
	// Verification is not set-up: it runs after the clock stops.
	for i, rs := range warm {
		for _, res := range rs {
			if err := b.cells[i].check(res, false); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return b, nil
}

// close stops the service, waiting for its scheduler to exit.
func (b *bench) close() {
	if b.svc != nil {
		b.svc.Close()
	}
}

// digest fingerprints every cell's reference Stats (or warm-up error), so
// separate processes can prove they simulated identically.
func (b *bench) digest() string {
	h := sha256.New()
	for _, c := range b.cells {
		fmt.Fprintf(h, "%s|%v|%+v|%s\n", c.name, c.refOK, c.ref, c.refErr)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// setupReport is the last line a -setup-only child prints.
type setupReport struct {
	SetupS float64 `json:"setup_s"`
	Digest string  `json:"digest"`
}

func runSetupOnly(cfg runConfig) int {
	b, err := newBench(cfg, procStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.close()
	line, err := json.Marshal(setupReport{SetupS: b.setup.Seconds(), Digest: b.digest()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measureSetups runs setupRuns fresh -setup-only processes one after the
// other and returns their set-up times and digests.
func measureSetups(cfg runConfig) ([]float64, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	var digests []string
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-workload", cfg.workload.name,
			"-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up process: %w", err)
		}
		var rep setupReport
		if err := json.Unmarshal(lastLine(out), &rep); err != nil {
			return nil, nil, fmt.Errorf("set-up process output: %w", err)
		}
		times = append(times, rep.SetupS)
		digests = append(digests, rep.Digest)
	}
	return times, digests, nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// segments is how many stretches of whole rounds a replay or one-shot
// timed phase is cut into; throughput and CPU per op are medians over
// them, so a host stall during one stretch moves them little.
const segments = 5

// segment is one stretch of the timed phase: whole rounds over the cells,
// or one service chunk.
type segment struct {
	win               window
	attempted, failed int
}

// opStats is what the timed phase yields.
type opStats struct {
	lat               [][]float64 // per cell, successful ops only, ms
	attempted, failed int
	errs              map[string]string // first error text per failing cell
	wrong             []string          // verification failures
	segs              []*segment
}

func newOpStats(n int) *opStats {
	return &opStats{lat: make([][]float64, n), errs: map[string]string{}, segs: []*segment{{}}}
}

// seg is the segment ops currently count toward.
func (s *opStats) seg() *segment { return s.segs[len(s.segs)-1] }

func (s *opStats) fail(c *cell, err error) {
	s.failed++
	s.seg().failed++
	if _, ok := s.errs[c.name]; !ok {
		s.errs[c.name] = err.Error()
	}
}

// total sums the segments' windows.
func (s *opStats) total() window {
	var t window
	for _, g := range s.segs {
		t.wall += g.win.wall
		t.cpu += g.win.cpu
		t.alloc += g.win.alloc
	}
	return t
}

// segmentMedians returns the median over segments of successful ops per
// second and of CPU ms per attempted op, and the per-segment rates.
func (s *opStats) segmentMedians() (opsPerS, cpuMS float64, rates []float64) {
	var cpu []float64
	for _, g := range s.segs {
		if g.attempted == 0 || g.win.wall <= 0 {
			continue
		}
		rates = append(rates, float64(g.attempted-g.failed)/g.win.wall.Seconds())
		cpu = append(cpu, ms(g.win.cpu)/float64(g.attempted))
	}
	sorted := append([]float64(nil), rates...)
	return median(sorted), median(cpu), rates
}

// runOps performs n ops of a replay or one-shot workload, cycling through
// the cells in the seeded order, in segments of whole rounds. Only the
// public call is inside the timed window; verification runs outside it.
func (b *bench) runOps(n int) *opStats {
	s := newOpStats(len(b.cells))
	rounds := n / len(b.order)
	segOf := func(i int) int { return (i / len(b.order)) * segments / max(rounds, 1) }
	for i := 0; i < n; i++ {
		if i > 0 && segOf(i) != segOf(i-1) {
			s.segs = append(s.segs, &segment{})
		}
		b.runOp(s, b.order[i%len(b.order)])
	}
	return s
}

// runOp performs one timed op of cell ci and verifies it outside the
// window.
func (b *bench) runOp(s *opStats, ci int) {
	c := b.cells[ci]
	g := s.seg()
	g.win.open()
	res, err := b.do(c)
	d := g.win.close()
	s.attempted++
	g.attempted++
	if err != nil {
		s.fail(c, err)
		return
	}
	s.lat[ci] = append(s.lat[ci], ms(d))
	if err := c.check(res, true); err != nil {
		s.wrong = append(s.wrong, err.Error())
	}
}

// serviceWarmJobs is the size of the service's set-up burst.
const serviceWarmJobs = 512

// serviceChunk bounds how many finished jobs are held before the timed
// window pauses to verify them, keeping held results small.
const serviceChunk = 1024

// finishedJob is one completed service job awaiting verification.
type finishedJob struct {
	ci  int
	lat float64
	res *bc.Result
}

// inflight is one outstanding service job.
type inflight struct {
	ci, id int
	job    *bc.Job
	t0     time.Time
}

// serviceHooks let the traced run observe the closed loop: submitted sees
// each Submit call and returns an id that finished receives when the
// generator collects the job.
type serviceHooks struct {
	submitted func(ci int, t0 time.Time, d time.Duration) int
	finished  func(id int)
}

// runService performs n service jobs as a closed loop: the generator keeps
// w.outstanding jobs in flight and replaces each finished job at once. Each
// job is timed from Submit to the return of Wait. Jobs run in chunks; the
// window pauses between chunks while the chunk's results are verified.
// h, when non-nil, observes the loop (traced run).
func (b *bench) runService(n int, h *serviceHooks) *opStats {
	s := newOpStats(len(b.cells))
	for done := 0; done < n; {
		chunk := min(serviceChunk, n-done)
		if done > 0 {
			s.segs = append(s.segs, &segment{})
		}
		done += chunk
		g := s.seg()
		var fin []finishedJob
		var live []inflight
		submitted := 0
		submit := func() {
			ci := b.draw.Intn(len(b.cells))
			submitted++
			s.attempted++
			g.attempted++
			t0 := time.Now()
			j, err := b.svc.Submit(b.cells[ci].spec)
			id := 0
			if h != nil {
				id = h.submitted(ci, t0, time.Since(t0))
			}
			if err != nil {
				s.fail(b.cells[ci], err)
				return
			}
			live = append(live, inflight{ci: ci, id: id, job: j, t0: t0})
		}
		cases := make([]reflect.SelectCase, 0, b.w.outstanding)
		g.win.open()
		for submitted < chunk && len(live) < b.w.outstanding {
			submit()
		}
		for len(live) > 0 {
			cases = cases[:0]
			for _, f := range live {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.job.Done())})
			}
			k, _, _ := reflect.Select(cases)
			f := live[k]
			res, err := f.job.Wait()
			lat := time.Since(f.t0)
			if h != nil {
				h.finished(f.id)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err != nil {
				s.fail(b.cells[f.ci], err)
			} else {
				fin = append(fin, finishedJob{ci: f.ci, lat: ms(lat), res: res})
			}
			for submitted < chunk && len(live) < b.w.outstanding {
				submit()
			}
		}
		g.win.close()
		for _, f := range fin {
			s.lat[f.ci] = append(s.lat[f.ci], f.lat)
			if err := b.cells[f.ci].check(f.res, false); err != nil {
				s.wrong = append(s.wrong, err.Error())
			}
		}
	}
	return s
}

// retainedHeapMB is the live heap after a full collection, with plans,
// inputs and the service still reachable through b.
func (b *bench) retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// simGeomean is the geometric mean over cells of the reference simulated
// time in ms (on the service: each spec's solo replay).
func (b *bench) simGeomean() float64 {
	var xs []float64
	for _, c := range b.cells {
		if c.refOK {
			xs = append(xs, c.ref.Time/1000)
		}
	}
	return geomean(xs)
}

// runEndToEnd is the untraced run: set-up timing in fresh processes, then
// this process's own set-up, the timed phase and verification.
func runEndToEnd(cfg runConfig) (*result, error) {
	setups, digests, err := measureSetups(cfg)
	if err != nil {
		return nil, err
	}
	b, err := newBench(cfg, time.Now())
	if err != nil {
		return nil, err
	}
	defer b.close()
	n := b.w.opCount(cfg.seconds)
	var s *opStats
	if b.w.kind == opService {
		s = b.runService(n, nil)
	} else {
		s = b.runOps(n)
	}
	heap := b.retainedHeapMB()

	r := &result{}
	b.describe(r)
	own := b.digest()
	mismatch := false
	for _, d := range digests {
		mismatch = mismatch || d != own
	}
	if mismatch {
		s.wrong = append(s.wrong, fmt.Sprintf("reference Stats differ between processes: %v vs %s", digests, own))
	}
	sum := summarize(b.names, s.lat)
	ok := s.attempted - s.failed
	tot := s.total()
	opsPerS, cpuMS, rates := s.segmentMedians()
	r.set("setup_s", median(append([]float64(nil), setups...)))
	r.set("latency_p50_ms", sum.p50)
	r.set("latency_tail_ms", sum.tail)
	r.set("ops_per_s", opsPerS)
	r.set("cpu_ms_per_op", cpuMS)
	r.set("alloc_mb_per_op", float64(tot.alloc)/(1<<20)/float64(s.attempted))
	r.set("retained_heap_mb", heap)
	r.set("sim_ms_geomean", b.simGeomean())
	r.set("success_frac", float64(ok)/float64(s.attempted))
	r.Attempted, r.Failed = s.attempted, s.failed
	r.Correct = len(s.wrong) == 0
	r.note("setup_runs_s", setups)
	r.note("setup_digests", digests)
	r.note("ops", n)
	r.note("timed_wall_s", tot.wall.Seconds())
	r.note("segment_ops_per_s", rates)
	r.note("samples_per_cell", sum.perCell)
	r.note("tail_percentile", sum.tailPct)
	r.note("tail_min_cell_samples", sum.minSamples)
	r.note("op_errors", s.errs)
	if len(s.wrong) > 0 {
		r.note("wrong", firstN(s.wrong, 5))
	}
	return r, nil
}

// describe records the host and build metadata and the warm-up errors.
func (b *bench) describe(r *result) {
	r.note("workload", b.w.name)
	r.note("seed", b.cfg.seed)
	r.note("why", b.w.why)
	for k, v := range hostInfo() {
		r.note(k, v)
	}
	r.note("cells", len(b.cells))
	r.note("reference_digest", b.digest())
	warm := map[string]string{}
	for _, c := range b.cells {
		if c.refErr != "" {
			warm[c.name] = c.refErr
		}
	}
	r.note("warmup_errors", warm)
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
