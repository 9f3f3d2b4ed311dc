package simany

// Interaction hot-path benchmark: a spawn+message-heavy workload that
// stresses exactly the per-interaction costs the kernel pays on top of the
// natively-executed task bodies — task creation and handoff (pooled worker
// coroutines), network.Send (striped counters, flat FIFO state) and the
// probe/spawn/join message storm of the task runtime. Task bodies compute
// almost nothing, so steps/sec here is dominated by the simulator's own
// allocation and synchronization overhead rather than by the simulated
// program.
//
// `go test -bench BenchmarkHotPath -benchmem` reports steps/sec, the
// simulation wall time and allocs per scheduling step; the committed
// BENCH_hotpath.json snapshot is regenerated with
//
//	go test -run '^$' -bench BenchmarkHotPath -benchmem -benchtime 3x

import (
	"runtime"
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/rt"
	"simany/internal/topology"
)

// hotPathDepth is the spawn-tree depth: 2^(depth+1)-1 conditional spawns,
// several thousand short-lived tasks on the 64-core mesh.
const hotPathDepth = 11

// runHotPath simulates the spawn tree once and returns the step count, the
// number of tasks actually shipped to other cores, and the wall time of
// the simulation proper.
func runHotPath(b *testing.B, shards, workers int) (steps, spawns int64, wall time.Duration) {
	b.Helper()
	k := core.New(core.Config{
		Topo:    topology.Mesh(64),
		Policy:  core.Spatial{T: core.DefaultT},
		Seed:    42,
		Shards:  shards,
		Workers: workers,
	})
	r := rt.New(k, nil, rt.DefaultOptions())
	var node func(depth int) func(*core.Env)
	var g *rt.Group
	node = func(depth int) func(*core.Env) {
		return func(e *core.Env) {
			e.ComputeCycles(30)
			if depth == 0 {
				return
			}
			r.SpawnOrRun(e, g, "n", 16, node(depth-1))
			r.SpawnOrRun(e, g, "n", 16, node(depth-1))
			e.ComputeCycles(5)
		}
	}
	start := time.Now()
	res, err := r.Run("hotpath", func(e *core.Env) {
		g = r.NewGroup()
		node(hotPathDepth)(e)
		r.Join(e, g)
	})
	if err != nil {
		b.Fatal(err)
	}
	wall = time.Since(start)
	if res.Steps < 1<<hotPathDepth {
		b.Fatalf("degenerate run: %d steps", res.Steps)
	}
	return res.Steps, r.Stats().Spawns, wall
}

func benchHotPath(b *testing.B, shards, workers int) {
	var steps, spawns int64
	var wall time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, sp, w := runHotPath(b, shards, workers)
		steps += s
		spawns += sp
		wall += w
	}
	b.ReportMetric(float64(steps)/wall.Seconds(), "steps/sec")
	b.ReportMetric(float64(spawns)/float64(b.N), "spawns/op")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "wall-ns/op")
}

// BenchmarkHotPath measures interaction-path throughput on the sequential
// engine and on the sharded engine (fixed 4 shards so the event semantics
// — and the allocation counts the CI guard compares — do not depend on the
// host's CPU count; workers adapt to the host).
func BenchmarkHotPath(b *testing.B) {
	b.Run("seq", func(b *testing.B) {
		benchHotPath(b, 1, 1)
	})
	b.Run("sharded", func(b *testing.B) {
		benchHotPath(b, 4, runtime.NumCPU())
	})
}
