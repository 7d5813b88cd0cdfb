package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one printed metric. The lists below must match
// BENCHMARK.json; the smoke mode checks that they do.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library would see, printed by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"retained_heap_mb", "MB", "lower"},
	{"sim_ms_geomean", "sim_ms", "lower"},
	{"success_frac", "frac", "higher"},
}

// perLayer are the traced run's metrics, one or more per library layer.
// A layer that does not run on a workload reports 0 and is listed under
// layers_not_run in the info record.
var perLayer = []metricDef{
	{"field.addr_ns_per_elem", "ns", "lower"},
	{"plan.compile_ms", "ms", "lower"},
	{"plan.choose_ms", "ms", "lower"},
	{"plan.auto_regret", "ratio", "lower"},
	{"plan.gather_ms", "ms", "lower"},
	{"plan.scatter_ms", "ms", "lower"},
	{"plan.cache_hit_us", "us", "lower"},
	{"fabric.audit_ms", "ms", "lower"},
	{"simnet.run_ms", "ms", "lower"},
	{"simnet.spawn_ms", "ms", "lower"},
	{"simnet.serial_run_ms", "ms", "lower"},
	{"simnet.shard_speedup", "ratio", "higher"},
	{"simnet.host_ns_per_send", "ns", "lower"},
	{"simnet.sends", "count", "lower"},
	{"simnet.startups", "count", "lower"},
	{"simnet.bytes_mb", "MB", "lower"},
	{"core.execute_ms", "ms", "lower"},
	{"core.self_ms", "ms", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"matrix.scatter_ms", "ms", "lower"},
	{"matrix.verify_ms", "ms", "lower"},
	{"service.submit_us", "us", "lower"},
	{"service.wait_ms", "ms", "lower"},
	{"service.jobs_per_round", "count", "higher"},
	{"service.batched_frac", "frac", "higher"},
	{"service.metrics_snapshot_us", "us", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "?"
}

// window accumulates host cost over the timed parts of a run only: wall
// time, process CPU (user + system, all threads) and heap bytes allocated.
type window struct {
	wall, cpu time.Duration
	alloc     uint64

	t0   time.Time
	cpu0 time.Duration
	a0   uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w *window) open() {
	w.cpu0 = processCPU()
	w.a0 = heapAllocated()
	w.t0 = time.Now()
}

// close ends the current timed span and returns its wall duration.
func (w *window) close() time.Duration {
	d := time.Since(w.t0)
	w.alloc += heapAllocated() - w.a0
	w.cpu += processCPU() - w.cpu0
	w.wall += d
	return d
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the highest whole percentile that leaves at least ten
// samples beyond it in a cell of n samples (never below the median).
func tailPercentile(n int) int {
	if n <= 20 {
		return 50
	}
	q := 100 * (n - 10) / n
	if q > 99 {
		q = 99
	}
	return q
}

// latencySummary combines per-cell latency samples: the per-cell median
// and tail percentile, each combined over cells by geometric mean. Empty
// cells (every op failed) are left out.
type latencySummary struct {
	p50, tail  float64
	tailPct    int
	minSamples int
	perCell    map[string]int
}

func summarize(names []string, lat [][]float64) latencySummary {
	s := latencySummary{perCell: map[string]int{}, minSamples: -1}
	for i, xs := range lat {
		s.perCell[names[i]] = len(xs)
		if len(xs) > 0 && (s.minSamples < 0 || len(xs) < s.minSamples) {
			s.minSamples = len(xs)
		}
	}
	if s.minSamples < 0 {
		s.minSamples = 0
	}
	s.tailPct = tailPercentile(s.minSamples)
	var p50s, tails []float64
	for _, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		p50s = append(p50s, median(xs))
		tails = append(tails, quantile(xs, float64(s.tailPct)/100))
	}
	s.p50, s.tail = geomean(p50s), geomean(tails)
	return s
}
