// Package annotate derives timing annotations for instruction blocks, the
// ways §II.A enumerates: "either derived from profile runs, from a simple
// processor model or inserted manually. Finally, they can be computed
// during the execution, for example to attribute approximate timings to
// coarse program parts at once with very low overhead."
//
//   - Calibrator implements the computed-during-execution mode: it measures
//     the host-native wall time of a code block and converts it to virtual
//     cycles through a calibration ratio established against blocks of
//     known cost.
//   - Model implements the simple-processor-model mode: it prices abstract
//     operation mixes (so a benchmark can annotate "k compares, k/2 swaps"
//     instead of hand-counting instruction classes).
package annotate

import (
	"time"

	"simany/internal/core"
	"simany/internal/timing"
)

// Calibrator converts host-native execution time of Go code into simulated
// cycles. The conversion ratio is set once (per host, per build) by timing
// a reference workload of known virtual cost; blocks measured later are
// charged proportionally. This is the paper's low-overhead coarse
// annotation mode: it trades per-instruction fidelity for the ability to
// annotate whole program parts at once.
type Calibrator struct {
	// CyclesPerNanosecond is the conversion ratio.
	CyclesPerNanosecond float64
}

// defaultSpin is the reference workload: a pure integer loop whose virtual
// cost under the PPC405 model is known exactly (2 IntALU + 1 BranchCond
// per iteration, 3 cycles).
func defaultSpin(iters int) int64 {
	var acc int64
	for i := 0; i < iters; i++ {
		acc += int64(i) ^ (acc >> 3)
	}
	return acc
}

// spinCyclesPerIter is the annotated virtual cost of one defaultSpin
// iteration under the PPC405 cost model.
const spinCyclesPerIter = 3

var sink int64

// NewCalibrator measures the host and returns a ready calibrator. The
// measurement takes a few milliseconds.
func NewCalibrator() *Calibrator {
	const iters = 2_000_000
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		sink += defaultSpin(iters)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	ns := float64(best.Nanoseconds())
	if ns <= 0 {
		ns = 1
	}
	return &Calibrator{CyclesPerNanosecond: float64(iters) * spinCyclesPerIter / ns}
}

// Cycles converts a host duration to virtual cycles.
func (c *Calibrator) Cycles(d time.Duration) float64 {
	v := float64(d.Nanoseconds()) * c.CyclesPerNanosecond
	if v < 1 {
		v = 1 // any executed block costs at least a cycle
	}
	return v
}

// ComputeProfiled runs fn natively, measures its host duration and charges
// the equivalent virtual cycles to the task — the "computed during the
// execution" annotation mode.
func (c *Calibrator) ComputeProfiled(e *core.Env, fn func()) {
	start := time.Now()
	fn()
	e.ComputeCycles(c.Cycles(time.Since(start)))
}

// Model prices abstract operation mixes with a cost model, sparing
// benchmark code from hand-assembling timing.Counts.
type Model struct {
	// PerCompare etc. are the instruction-class decompositions of the
	// abstract operations.
	PerCompare, PerSwap, PerPointerChase, PerFloatOp timing.Counts
}

// NewModel returns the decompositions used by the dwarf benchmarks.
func NewModel() *Model {
	m := &Model{}
	m.PerCompare[timing.IntALU] = 2
	m.PerCompare[timing.BranchCond] = 1
	m.PerSwap[timing.IntALU] = 4
	m.PerPointerChase[timing.IntALU] = 2
	m.PerPointerChase[timing.BranchCond] = 1
	m.PerFloatOp[timing.FPALU] = 1
	return m
}

// Mix assembles an annotation for a block of abstract operations.
func (m *Model) Mix(compares, swaps, chases, floatOps int64) timing.Counts {
	var out timing.Counts
	add := func(c timing.Counts, n int64) {
		for i := range c {
			out[i] += c[i] * n
		}
	}
	add(m.PerCompare, compares)
	add(m.PerSwap, swaps)
	add(m.PerPointerChase, chases)
	add(m.PerFloatOp, floatOps)
	return out
}
