package simany

import (
	"runtime"
	"strings"
	"testing"

	"simany/internal/core"
	"simany/internal/rt"
	"simany/internal/topology"
)

// TestAllocsPerRunCeilings holds the host allocations of one Run call
// under ceilings at 1.2× the count measured at go1.24, linux/amd64. The
// counts are exact for a fixed (seed, shards, workers) triple and repeat
// on any host, so a regression to per-step or per-message allocation shows
// here as a count; throughput is judged against BENCHMARK.json instead.
// Building the machine and the kernel is not measured, and each row runs
// once on a throwaway kernel first, so one-time warm-up is not billed.
//
// Each row was an allocs/op ceiling in a retired benchmark baseline file:
// the hot-path file (seq, sharded), the chiplet scale file (seq, sharded)
// and the sparse-idle file (lazy/1k, dense-lazy/1k).
func TestAllocsPerRunCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		shards  int // spawn tree on this many shards; 0 = strided tasks
		tasks   int
		ceiling uint64
	}{
		{"tree/mesh8x8/seq", "mesh:8x8", 1, 0, 20694},                // measured 17245
		{"tree/mesh8x8/4shards", "mesh:8x8", 4, 0, 34660},            // measured 28883
		{"tree/chiplet1k/seq", "chiplet:8x8,4x4", 1, 0, 20701},       // measured 17251
		{"tree/chiplet1k/16shards", "chiplet:8x8,4x4", 16, 0, 20837}, // measured 17364
		{"sparse/64tasks", "chiplet:8x8,4x4", 0, 64, 1109},           // measured 924
		{"dense/1024tasks", "chiplet:8x8,4x4", 0, 1024, 17289},       // measured 14373-14407
	} {
		t.Run(tc.name, func(t *testing.T) {
			if strings.HasPrefix(tc.spec, "chiplet") && testing.Short() {
				t.Skip("1024-core machine in -short mode")
			}
			topo := machine(t, tc.spec)
			build := func() func() error {
				if tc.shards == 0 {
					k := core.New(core.Config{Topo: topo, Policy: core.Spatial{T: core.DefaultT}, Seed: 42})
					injectStrided(k, topo.N(), tc.tasks, 100)
					return func() error { _, err := k.Run(); return err }
				}
				return spawnTree(topo, tc.shards)
			}
			if err := build()(); err != nil {
				t.Fatal(err)
			}
			run := build()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			got := after.Mallocs - before.Mallocs
			t.Logf("%d allocs per run (ceiling %d)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%d allocs per run, ceiling %d", got, tc.ceiling)
			}
		})
	}
}

// spawnTree builds the spawn-storm body at depth 11 and returns its run: a
// binary SpawnOrRun tree of ComputeCycles(30) nodes, joined at the root.
// Task bodies compute almost nothing, so the allocations are the
// simulator's own per-interaction costs (task handoff, network.Send, the
// probe/spawn/join messages) plus the tree's closures.
func spawnTree(topo *topology.Topology, shards int) func() error {
	k := core.New(core.Config{
		Topo: topo, Policy: core.Spatial{T: core.DefaultT}, Seed: 42,
		Shards: shards, Workers: min(shards, 2),
	})
	r := rt.New(k, nil, rt.DefaultOptions())
	var g *rt.Group
	var node func(depth int) func(*core.Env)
	node = func(depth int) func(*core.Env) {
		return func(e *core.Env) {
			e.ComputeCycles(30)
			if depth > 0 {
				r.SpawnOrRun(e, g, "n", 16, node(depth-1))
				r.SpawnOrRun(e, g, "n", 16, node(depth-1))
				e.ComputeCycles(5)
			}
		}
	}
	return func() error {
		_, err := r.Run("tree", func(e *core.Env) {
			g = r.NewGroup()
			node(11)(e)
			r.Join(e, g)
		})
		return err
	}
}
