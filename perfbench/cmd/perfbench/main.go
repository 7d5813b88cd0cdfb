// Command perfbench is the repository benchmark: it drives the boolcube
// library through its public entry points on four named workloads, checks
// every result element-exact against the transposed input, and prints each
// end-to-end metric by name with its unit. With -trace 1 it instead runs a
// traced pass that replays each operation layer by layer through the
// exported functions of the internal packages and prints the per-layer
// metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload replay|oneshot|service|scale -seed N -seconds S -trace 0|1
//	perfbench -smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines starting with
// "# info " carry the run's metadata (host, Go version, revision, per-cell
// sample counts, tail percentile, recorded error texts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// procStart approximates process start: package variables initialize
// before main runs.
var procStart = time.Now()

// memoryLimit is a soft heap limit for the benchmark process. The scale
// workload's failing exchange cell holds about 1.7 GB of live heap before
// it fails; without a limit the next collection target doubles that and
// the process peaks near 3.5 GB of RSS. The limit keeps the peak near
// 2 GB; the other workloads stay far below it, so it never engages there.
// GOMEMLIMIT in the environment takes precedence.
const memoryLimit = 2 << 30

func main() {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(memoryLimit)
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (drives inputs, cell order and the service spec draw)")
	seconds := fs.Int("seconds", 10, "nominal measuring time; fixes the op count of the run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	out := fs.String("out", ".bench_build/spans", "directory the traced run writes its span JSON into")
	smoke := fs.Bool("smoke", false, "self-test: tiny runs of every workload, metric/unit coverage, checker mutation test")
	setupOnly := fs.Bool("setup-only", false, "internal: set up once, print the set-up time and reference digest, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		return runSmoke(*out)
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, workloadNames())
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, out: *out}
	if *setupOnly {
		return runSetupOnly(cfg)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload *workload
	seed     int64
	seconds  int
	out      string
}

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: the info record and the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	info      map[string]any
}

func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) note(key string, v any) {
	if r.info == nil {
		r.info = map[string]any{}
	}
	r.info[key] = v
}

// print writes the info line and then the result line, last.
func (r *result) print(f *os.File) error {
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "# info %s\n%s\n", info, line)
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
