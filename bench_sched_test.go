package simany

// Scheduler benchmark: a scheduling-bound workload driven through the
// indexed runnable queue (docs/scheduler.md), at the paper's many-core
// scale (1024 cores), sequential and sharded, and at a small scale (64
// cores).
//
// The workload is one compute task per core with heterogeneous block costs
// under spatial synchronization (T=100cy): fast cores run ahead, hit the
// drift bound against their slower neighbors and stall, so almost every
// scheduling step is a stall/resume decision over the whole machine.
// Application
// benchmarks like quicksort spend most wall time inside task bodies and
// the memory model; this one isolates the scheduler.
//
// `go test -bench BenchmarkSchedulerSteps` reports steps/sec per variant;
// the committed BENCH_sched.json snapshot is regenerated with
//
//	go test -run '^$' -bench BenchmarkSchedulerSteps -benchtime 3x

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// schedBenchRounds is the number of annotation blocks each core executes.
const schedBenchRounds = 30

// runSchedWorkload simulates the stall-heavy workload once and returns the
// step count and the wall time of the simulation proper.
func runSchedWorkload(b *testing.B, cores, shards, workers int) (int64, time.Duration) {
	b.Helper()
	k := core.New(core.Config{
		Topo:    topology.Mesh(cores),
		Policy:  core.Spatial{T: core.DefaultT},
		Seed:    42,
		Shards:  shards,
		Workers: workers,
	})
	if got := k.Scheduler(); got != "index" {
		b.Fatalf("scheduler = %q, want index", got)
	}
	for i := 0; i < cores; i++ {
		// Block costs straddle the drift bound: the spread keeps fast
		// cores perpetually stalling against their slower neighbors.
		cost := 40.0 + 15.0*float64(i%8)
		k.InjectTask(i, fmt.Sprintf("w%d", i), func(e *core.Env) {
			for r := 0; r < schedBenchRounds; r++ {
				e.ComputeCycles(cost)
			}
		}, nil, 0)
	}
	start := time.Now()
	res, err := k.Run()
	if err != nil {
		b.Fatal(err)
	}
	wall := time.Since(start)
	if res.FinalVT == vtime.Inf || res.Steps < int64(cores) {
		b.Fatalf("degenerate run: %d steps, final VT %v", res.Steps, res.FinalVT)
	}
	return res.Steps, wall
}

func benchSchedSteps(b *testing.B, cores, shards, workers int) {
	var steps int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		s, w := runSchedWorkload(b, cores, shards, workers)
		steps += s
		wall += w
	}
	b.ReportMetric(float64(steps)/wall.Seconds(), "steps/sec")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "wall-ns/op")
}

// BenchmarkSchedulerSteps reports scheduling throughput of the indexed
// runnable queue on the stall-heavy workload.
func BenchmarkSchedulerSteps(b *testing.B) {
	shards := runtime.NumCPU()
	if shards < 2 {
		shards = 8 // single-CPU host: still exercise the per-shard engine
	}
	b.Run("1024/seq-index", func(b *testing.B) {
		benchSchedSteps(b, 1024, 1, 1)
	})
	b.Run("1024/sharded-index", func(b *testing.B) {
		benchSchedSteps(b, 1024, shards, runtime.NumCPU())
	})
	b.Run("64/seq-index", func(b *testing.B) {
		benchSchedSteps(b, 64, 1, 1)
	})
}
