package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the smoke mode checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSmoke is the benchmark's self-test. It checks that BENCHMARK.json
// names exactly the workloads and metrics this program prints, runs every
// workload briefly untraced and traced and checks that every named metric
// prints with its unit, and proves the correctness gate is live: a
// corrupted result and corrupted Stats must both be caught by the checker.
func runSmoke(out string) int {
	bad := 0
	failf := func(format string, a ...any) {
		bad++
		fmt.Printf("FAIL "+format+"\n", a...)
	}
	var bf benchmarkFile
	if data, err := os.ReadFile("BENCHMARK.json"); err != nil {
		failf("read BENCHMARK.json: %v", err)
	} else if err := json.Unmarshal(data, &bf); err != nil {
		failf("parse BENCHMARK.json: %v", err)
	}
	check := func(kind string, want []metricDef, got []benchmarkMetric) {
		if len(want) != len(got) {
			failf("BENCHMARK.json lists %d %s metrics, the program prints %d", len(got), kind, len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				failf("BENCHMARK.json %s metric %d is %+v, the program prints %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		failf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			failf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}

	for _, name := range []string{"replay", "oneshot", "service", "scale"} {
		w := workloads[name]
		small := *w
		small.opsPerSecond = float64(len(w.cells))
		small.traceRounds = 1
		cfg := runConfig{workload: &small, seed: 7, seconds: 1, out: out}
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			var r *result
			var err error
			if trace == 0 {
				r, err = runEndToEnd(cfg)
			} else {
				r, err = runTraced(cfg)
			}
			if err != nil {
				failf("%s trace=%d: %v", name, trace, err)
				continue
			}
			if !r.Correct {
				failf("%s trace=%d: run not correct: %v", name, trace, r.info["wrong"])
			}
			if len(r.Metrics) != len(want) {
				failf("%s trace=%d: printed %d metrics, want %d", name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					failf("%s trace=%d: metric %s missing or without unit %q (got %+v)", name, trace, m.name, m.unit, got)
				}
			}
			fmt.Printf("ok   %s trace=%d: %d metrics, attempted %d, failed %d\n", name, trace, len(r.Metrics), r.Attempted, r.Failed)
		}
	}

	// Mutation check: the checker must reject a result with one element
	// changed, and a result whose Stats differ from the reference.
	cfg := runConfig{workload: workloads["replay"], seed: 7, seconds: 1}
	b, err := newBench(cfg, procStart)
	if err != nil {
		failf("mutation set-up: %v", err)
	} else {
		c := b.cells[0]
		res, err := b.do(c)
		switch {
		case err != nil:
			failf("mutation op: %v", err)
		case c.check(res, true) != nil:
			failf("mutation: unmodified result rejected: %v", c.check(res, true))
		default:
			res.Dist.Local[1][2] += 1
			if c.check(res, true) == nil {
				failf("mutation: corrupted element not caught")
			}
			res.Dist.Local[1][2] -= 1
			res.Stats.Sends++
			if c.check(res, true) == nil {
				failf("mutation: corrupted Stats not caught")
			}
			fmt.Println("ok   checker catches a corrupted element and corrupted Stats")
		}
		b.close()
	}
	if bad > 0 {
		fmt.Printf("smoke: %d failure(s)\n", bad)
		return 1
	}
	fmt.Println("smoke: ok")
	return 0
}
