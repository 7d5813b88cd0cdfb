package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval: a call into one layer, or an op enclosing
// such calls. Spans of one op share its op id; Parent is 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; write saves them as JSON when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.us(time.Now())})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id-1]
	sp.End = t.us(time.Now())
	return time.Duration((sp.End - sp.Start) * float64(time.Microsecond))
}

// record adds an already finished span.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.us(start), End: t.us(end)})
	return len(t.spans)
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	id := t.begin(name, parent, op)
	f()
	return t.end(id)
}

// selfTimes returns, per span name, the summed self time in ms: each
// span's duration minus the time its direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans)+1)
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	self := map[string]float64{}
	for _, sp := range t.spans {
		self[sp.Name] += (sp.End - sp.Start - child[sp.ID]) / 1000
	}
	return self
}

// write saves the spans under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// layerSamples collects per-cell samples of each per-layer metric.
type layerSamples struct {
	ncells int
	by     map[string][][]float64
}

func newLayerSamples(ncells int) *layerSamples {
	return &layerSamples{ncells: ncells, by: map[string][][]float64{}}
}

func (l *layerSamples) add(name string, ci int, v float64) {
	xs := l.by[name]
	if xs == nil {
		xs = make([][]float64, l.ncells)
		l.by[name] = xs
	}
	xs[ci] = append(xs[ci], v)
}

// meanMetrics are combined over cells by arithmetic mean (counts, and
// differences that may be negative); every other metric by geometric mean
// of the per-cell medians.
var meanMetrics = map[string]bool{
	"simnet.sends": true, "simnet.startups": true, "simnet.bytes_mb": true,
	"service.wait_ms": true, "core.self_ms": true,
}

// fill sets every per-layer metric on r. Metrics with no samples on this
// workload are set to 0 and listed under layers_not_run.
func (l *layerSamples) fill(r *result) {
	var notRun []string
	for _, m := range perLayer {
		xs, ok := l.by[m.name]
		if !ok {
			if m.name != "trace_overhead_pct" {
				notRun = append(notRun, m.name)
				r.set(m.name, 0)
			}
			continue
		}
		var per []float64
		for _, c := range xs {
			if len(c) > 0 {
				per = append(per, median(c))
			}
		}
		if meanMetrics[m.name] {
			r.set(m.name, mean(per))
		} else {
			r.set(m.name, geomean(per))
		}
	}
	sort.Strings(notRun)
	r.note("layers_not_run", notRun)
}
