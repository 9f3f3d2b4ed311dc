// Package harness drives the evaluation of §VI: it runs the dwarf
// benchmarks over the paper's architecture grid and regenerates every
// figure and table as plain-text series (who wins, by what factor, where
// the crossovers fall).
package harness

import (
	"fmt"
	"io"
	"time"

	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/stats"
	"simany/internal/vtime"
)

// Options configures a harness run.
type Options struct {
	// Seed drives workload generation and simulator decisions.
	Seed int64
	// Scale multiplies dataset sizes (1 = laptop defaults; larger
	// approaches the paper's full sizes).
	Scale float64
	// Quick restricts the core grid for fast regression runs
	// (max 64 cores for exploration figures, 16 for validation).
	Quick bool
	// Benchmarks filters by name (nil = all six).
	Benchmarks []string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Harness executes experiment plans.
type Harness struct {
	opt       Options
	lastPlots []*stats.Plot
}

// New creates a harness with defaults filled in.
func New(opt Options) *Harness {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	return &Harness{opt: opt}
}

// ExplorationCores returns the paper's core grid for Figs. 7-13
// (1, 8, 64, 256, 1024), truncated in quick mode.
func (h *Harness) ExplorationCores() []int {
	if h.opt.Quick {
		return []int{1, 8, 64}
	}
	return []int{1, 8, 64, 256, 1024}
}

// ValidationCores returns the grid of Figs. 5-6 (1..64), truncated in
// quick mode.
func (h *Harness) ValidationCores() []int {
	if h.opt.Quick {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

// HighCores returns the "part of interest" grid of the T study (Figs.
// 10-11: 64 to 1024 cores).
func (h *Harness) HighCores() []int {
	if h.opt.Quick {
		return []int{16, 64}
	}
	return []int{64, 256, 1024}
}

// benchNames returns the selected benchmark names.
func (h *Harness) benchNames() []string {
	if len(h.opt.Benchmarks) > 0 {
		return h.opt.Benchmarks
	}
	return bench.Names()
}

// validationBenchNames returns the four benchmarks of Figs. 5-6.
func (h *Harness) validationBenchNames() []string {
	all := []string{"barnes-hut", "conncomp", "quicksort", "spmxv"}
	if len(h.opt.Benchmarks) == 0 {
		return all
	}
	var out []string
	for _, n := range all {
		for _, f := range h.opt.Benchmarks {
			if n == f {
				out = append(out, n)
			}
		}
	}
	return out
}

func (h *Harness) logf(format string, args ...any) {
	if h.opt.Log != nil {
		fmt.Fprintf(h.opt.Log, format+"\n", args...)
	}
}

// Outcome is the result of one simulated benchmark run.
type Outcome struct {
	Bench   string
	Machine config.Machine
	VT      vtime.Time
	Wall    time.Duration
	Result  core.Result
	// OK reports that the simulated output matched the native run.
	OK bool
}

// Run executes one benchmark on one machine and verifies its output
// against the native reference.
func (h *Harness) Run(name string, m config.Machine) (Outcome, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return Outcome{}, err
	}
	b.Generate(h.opt.Seed, h.opt.Scale)
	want := b.RunNative()
	if m.Seed == 0 {
		m.Seed = h.opt.Seed
	}
	_, r, err := m.Build()
	if err != nil {
		return Outcome{}, err
	}
	root, finish := b.Program(r, m.Mem.Mode())
	start := time.Now()
	res, err := r.Run(name, root)
	if err != nil {
		return Outcome{}, fmt.Errorf("harness: %s on %d cores (%s/%s): %w",
			name, m.Cores, m.Style, m.Mem, err)
	}
	out := Outcome{
		Bench:   name,
		Machine: m,
		VT:      res.FinalVT,
		Wall:    time.Since(start),
		Result:  res,
		OK:      finish() == want,
	}
	if !out.OK {
		return out, fmt.Errorf("harness: %s on %d cores (%s/%s): simulated output diverged from native run",
			name, m.Cores, m.Style, m.Mem)
	}
	h.logf("  %-11s %5d cores %-12s %-17s vt=%-12v wall=%v",
		name, m.Cores, m.Style, m.Mem, out.VT, out.Wall.Round(time.Millisecond))
	return out, nil
}

// NativeWall measures the wall-clock duration of the native sequential run
// (the Fig. 7 normalization base), taking the best of three.
func (h *Harness) NativeWall(name string) (time.Duration, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return 0, err
	}
	b.Generate(h.opt.Seed, h.opt.Scale)
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		b.RunNative()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best <= 0 {
		best = time.Nanosecond
	}
	return best, nil
}
