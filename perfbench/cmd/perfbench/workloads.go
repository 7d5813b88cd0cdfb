package main

import (
	"fmt"
	"math/rand"

	bc "boolcube"
)

// opKind selects which public entry point one op calls.
type opKind int

const (
	opReplay  opKind = iota // CompiledTranspose.Execute on a compiled plan
	opOneshot               // Transpose: uncached compile + execute
	opService               // Service.Submit + Job.Wait
)

// workload is one named input set.
type workload struct {
	name, why string
	kind      opKind
	cells     []cellDef
	// opsPerSecond fixes the op count of a run: ops = seconds ×
	// opsPerSecond, rounded up to whole rounds over the cells, so failure
	// fractions and per-cell sample counts are exact. The rates were
	// calibrated on a 2-CPU x86-64 host so that a run measures about
	// -seconds of ops there.
	opsPerSecond float64
	// traceRounds is how many ops per cell the traced run replays layer
	// by layer.
	traceRounds int
	// outstanding is the service workload's closed-loop client count.
	outstanding int
}

// cellDef describes one cell: a layout pair, an algorithm and a machine.
// Cells naming the same source share one input matrix.
type cellDef struct {
	name          string
	source        string
	before, after bc.Layout
	alg           bc.Algorithm
	machine       bc.Machine
}

func (d cellDef) options() bc.Options {
	return bc.Options{Algorithm: d.alg, Machine: d.machine}
}

// serviceDims is the cube of the shared service.
const serviceDims = 6

var workloads = map[string]*workload{
	"replay": {
		name: "replay",
		why:  "Compiled replays on an 8-cube: gather/scatter, audit, comm/router and engine work with plans compiled in set-up, so replay-side cuts show and compile-side changes must not.",
		kind: opReplay, cells: replayCells(), opsPerSecond: 19, traceRounds: 4,
	},
	"oneshot": {
		name: "oneshot",
		why:  "Uncached one-shot transposes of 2^7x2^7 on 4- to 6-cubes, about half compile; the only workload where AlgorithmAuto's choice moves sim_ms_geomean.",
		kind: opOneshot, cells: oneshotCells(), opsPerSecond: 85, traceRounds: 2,
	},
	"service": {
		name: "service",
		why:  "Closed loop of 16 tenants on one shared 6-cube service: the only workload running admission, merged-flow rounds, batching, demux and Metrics, on a warm plan cache.",
		kind: opService, cells: serviceCells(), opsPerSecond: 450, traceRounds: 4, outstanding: 16,
	},
	"scale": {
		name: "scale",
		why:  "Compiled 2^8x2^8 replays on a 12-cube (4,096 nodes) under the CM model: above the auto-shard threshold, so the sharded epoch engine does nearly all the work.",
		kind: opReplay, cells: scaleCells(), opsPerSecond: 4, traceRounds: 2,
	},
}

// replayCells: the four replay cells of the canonical 8-cube transpose.
func replayCells() []cellDef {
	rows9 := bc.OneDimConsecutiveRows(9, 9, 8, bc.Binary)
	twod9 := bc.TwoDimConsecutive(9, 9, 4, 4, bc.Binary)
	rows8 := bc.OneDimConsecutiveRows(8, 8, 6, bc.Binary)
	return []cellDef{
		{"exchange-1d-ipsc", "rows9", rows9, rows9, bc.Exchange, bc.IPSC()},
		{"spt-2d-ipsc", "twod9", twod9, twod9, bc.SPT, bc.IPSC()},
		{"mpt-2d-ipsc-nport", "twod9", twod9, twod9, bc.MPT, bc.IPSCNPort()},
		{"sbnt-1d-ipsc-nport", "rows8", rows8, rows8, bc.SBnT, bc.IPSCNPort()},
	}
}

// oneshotCells: 4-, 5- and 6-cubes × three machines × {auto on 1-D rows,
// auto on 2-D consecutive, explicit exchange}, plus MPT on even cubes
// (SPT and MPT require an even cube).
func oneshotCells() []cellDef {
	var cells []cellDef
	for _, n := range []int{4, 5, 6} {
		rows := bc.OneDimConsecutiveRows(7, 7, n, bc.Binary)
		twod := bc.TwoDimConsecutive(7, 7, (n+1)/2, n/2, bc.Binary)
		twodT := bc.TwoDimConsecutive(7, 7, (n+1)/2, n/2, bc.Binary)
		rs, ts := fmt.Sprintf("rows7-n%d", n), fmt.Sprintf("twod7-n%d", n)
		for _, m := range []bc.Machine{bc.IPSC(), bc.IPSCNPort(), bc.ConnectionMachine()} {
			cells = append(cells,
				cellDef{fmt.Sprintf("auto-1d-n%d-%s", n, m.Name), rs, rows, rows, bc.AlgorithmAuto, m},
				cellDef{fmt.Sprintf("auto-2d-n%d-%s", n, m.Name), ts, twod, twodT, bc.AlgorithmAuto, m},
				cellDef{fmt.Sprintf("exchange-1d-n%d-%s", n, m.Name), rs, rows, rows, bc.Exchange, m})
			if n%2 == 0 {
				cells = append(cells,
					cellDef{fmt.Sprintf("mpt-2d-n%d-%s", n, m.Name), ts, twod, twodT, bc.MPT, m})
			}
		}
	}
	return cells
}

// serviceCells: twelve small job specs over five shared sources on the
// 6-cube service's default machine (n-port iPSC). Identical specs that
// land in one round batch.
func serviceCells() []cellDef {
	np := bc.IPSCNPort()
	a := bc.TwoDimConsecutive(5, 5, 3, 3, bc.Binary)
	b := bc.TwoDimConsecutive(4, 4, 2, 2, bc.Binary)
	c := bc.OneDimConsecutiveRows(5, 5, 5, bc.Binary)
	d := bc.OneDimConsecutiveRows(3, 3, 3, bc.Binary)
	e := bc.OneDimConsecutiveRows(4, 5, 4, bc.Binary)
	eT := bc.OneDimConsecutiveRows(5, 4, 4, bc.Binary)
	return []cellDef{
		{"spt-2d-p5", "a", a, a, bc.SPT, np},
		{"mpt-2d-p5", "a", a, a, bc.MPT, np},
		{"exchange-2d-p5", "a", a, a, bc.Exchange, np},
		{"sbnt-2d-p5", "a", a, a, bc.SBnT, np},
		{"spt-2d-p4", "b", b, b, bc.SPT, np},
		{"mpt-2d-p4", "b", b, b, bc.MPT, np},
		{"exchange-2d-p4", "b", b, b, bc.Exchange, np},
		{"exchange-1d-p5", "c", c, c, bc.Exchange, np},
		{"sbnt-1d-p5", "c", c, c, bc.SBnT, np},
		{"exchange-1d-p3", "d", d, d, bc.Exchange, np},
		{"sbnt-1d-p3", "d", d, d, bc.SBnT, np},
		{"exchange-1d-p4x5", "e", e, eT, bc.Exchange, np},
	}
}

// scaleCells: five algorithms on a 2^8x2^8 matrix over a 12-cube, CM model.
func scaleCells() []cellDef {
	l := bc.TwoDimConsecutive(8, 8, 6, 6, bc.Binary)
	cm := bc.ConnectionMachine()
	var cells []cellDef
	for _, alg := range []bc.Algorithm{bc.SPT, bc.DPT, bc.MPT, bc.SBnT, bc.Exchange} {
		cells = append(cells, cellDef{alg.String() + "-2d-cm", "twod8", l, l, alg, cm})
	}
	return cells
}

// opCount is the fixed number of ops a run of the given length performs:
// whole rounds over the cells.
func (w *workload) opCount(seconds int) int {
	n := len(w.cells)
	rounds := (int(float64(seconds)*w.opsPerSecond) + n - 1) / n
	if rounds < 1 {
		rounds = 1
	}
	return rounds * n
}

// seededMatrix returns a 2^p x 2^q matrix whose values are distinct and
// depend on the seed: element i holds i plus a seeded fraction in [0, 0.5).
func seededMatrix(rng *rand.Rand, p, q int) *bc.Matrix {
	m := bc.NewMatrix(p, q)
	for i := range m.Data {
		m.Data[i] = float64(i) + rng.Float64()/2
	}
	return m
}
