package simany

// The scale smoke checks: the reference 102400-core chiplet machine
// (8x8-core chiplets, 4x4 chiplets per chip, 10x10 chips) must construct,
// partition chip-aligned and run a dense sharded workload inside a fixed
// heap ceiling, and run a sparse one to completion inside a wall-clock
// budget; the 1048576-core machine (32x32 chips) must run the same sparse
// load inside a fixed heap ceiling.

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/topology"
)

// machine builds the topology of spec or fails t.
func machine(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// injectStrided gives tasks evenly strided cores of k's n-core machine one
// task each of slices ComputeCycles(100) blocks.
func injectStrided(k *core.Kernel, n, tasks, slices int) {
	for i := 0; i < tasks; i++ {
		k.InjectTask(i*(n/tasks), "w", func(e *core.Env) {
			for s := 0; s < slices; s++ {
				e.ComputeCycles(100)
			}
		}, nil, 0)
	}
}

// scaleFootprintCeiling is the heap ceiling for the 100k-core smoke run:
// 1.25× the 85.4 MiB measured on linux/amd64, go1.24, with the kernel
// held and every core holding a task, so every core has its run state.
const scaleFootprintCeiling = 107 << 20 // 107 MiB

// TestScale100kFootprint constructs the reference 102400-core machine
// (8x8-core chiplets, 4x4 chiplets per chip, 10x10 chips), verifies the
// shard partition is chip-aligned, runs a step-bounded sharded workload
// with every core busy and checks the live heap stays under the CI
// ceiling. The step bound deliberately stops the run while cores are still
// computing: a dense machine is the scale scenario, and ending mid-flight
// avoids simulating 102400 task completions in a smoke test.
func TestScale100kFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core machine build in -short mode")
	}
	topo := machine(t, "chiplet:8x8,4x4,10x10")
	if topo.N() != 102400 {
		t.Fatalf("N = %d, want 102400", topo.N())
	}
	h := topo.Hierarchy()
	const shards = 16
	part := topology.PartitionFor(topo, shards)
	cuts := topology.TierCuts(topo, part)
	if cuts[0] != 0 || cuts[1] != 0 {
		t.Fatalf("100k partition severs intra-chip links: tier cuts %v", cuts)
	}
	if h.NumUnits(1) != 100 {
		t.Fatalf("chip count = %d, want 100", h.NumUnits(1))
	}

	const maxSteps = 50000
	k := core.New(core.Config{
		Topo:     topo,
		Policy:   core.Spatial{T: core.DefaultT},
		Seed:     7,
		Shards:   shards,
		MaxSteps: maxSteps,
	})
	injectStrided(k, topo.N(), topo.N(), 100000)
	_, err := k.Run()
	// The step bound firing is the expected outcome — it proves the
	// machine simulated maxSteps scheduling steps.
	if err == nil || !strings.Contains(err.Error(), "scheduling steps") {
		t.Fatalf("run ended with %v, want the %d-step bound to fire", err, maxSteps)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(k) // the heap measured is the machine's
	t.Logf("100k-core machine: %.1f MiB live heap after %d steps (%d links)",
		float64(ms.HeapAlloc)/(1<<20), maxSteps, topo.NumLinks())
	if ms.HeapAlloc > scaleFootprintCeiling {
		t.Errorf("live heap %d bytes exceeds the %d-byte scale ceiling",
			ms.HeapAlloc, uint64(scaleFootprintCeiling))
	}
}

// scaleSparseBudget bounds the wall clock of the sparse 100k smoke run.
// The run takes a few seconds on one CPU; recomputing the ~102k-core idle
// region on every one of the ~10^5 scheduling steps would blow far past
// this, so the budget doubles as a regression gate on the per-completion
// cost.
const scaleSparseBudget = 90 * time.Second

// TestScale100kSparse is the sparse counterpart of the footprint smoke:
// the same 102400-core chiplet machine with only 256 busy cores, run TO
// COMPLETION. Dense machines amortize idle-region maintenance over busy
// work; a sparse machine is all idle region, which is exactly the regime
// the lazy effective-time scheme (docs/effective-time.md) exists for.
func TestScale100kSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core machine build in -short mode")
	}
	topo := machine(t, "chiplet:8x8,4x4,10x10")
	k := core.New(core.Config{Topo: topo, Policy: core.Spatial{T: core.DefaultT}, Seed: 7, Shards: 16})
	// 256 tasks strided across the machine: every shard owns a sliver of
	// the busy frontier, the rest of its cores sit idle the whole run.
	const tasks = 256
	injectStrided(k, topo.N(), tasks, 200)
	start := time.Now()
	res, err := k.Run()
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sparse 100k run: %d steps in %v (%d busy of %d cores)",
		res.Steps, wall.Round(time.Millisecond), tasks, topo.N())
	// One scheduling step executes compute slices until the drift horizon
	// interrupts, so steps ≪ slices; the run completing at all (liveTasks
	// drained) plus a per-task floor keeps the check non-vacuous.
	if res.Steps < tasks {
		t.Errorf("steps = %d, want >= %d", res.Steps, tasks)
	}
	if wall > scaleSparseBudget {
		t.Errorf("sparse run took %v, budget %v — per-completion cost is scaling with the idle region again", wall, scaleSparseBudget)
	}
}

// scale1MHeapCeiling is the live-heap ceiling of the million-core sparse
// run (measured 380.5 MiB on linux/amd64, go1.24; 754.3 MiB before run
// state was allocated on first use).
const scale1MHeapCeiling = 400 << 20 // 400 MiB

// sparseRun builds spec's machine, runs the 256-task sparse load of
// TestScale100kSparse to completion on 16 shards and returns its wall time
// and the live heap with the finished kernel still held.
func sparseRun(t *testing.T, spec string) (time.Duration, uint64) {
	t.Helper()
	topo := machine(t, spec)
	k := core.New(core.Config{Topo: topo, Policy: core.Spatial{T: core.DefaultT}, Seed: 7, Shards: 16})
	injectStrided(k, topo.N(), 256, 200)
	start := time.Now()
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(k)
	return wall, ms.HeapAlloc
}

// TestScale1MSparse runs the sparse load on the 1048576-core machine
// chiplet:8x8,4x4,32x32 and holds its live heap under scale1MHeapCeiling:
// a core that never runs a task costs only its inline state and its links.
// It logs the wall-time ratio to the same load on the 102400-core machine,
// measured in the same process, and gates nothing on time.
func TestScale1MSparse(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("million-core machine in -short mode or under the race detector")
	}
	wall100k, _ := sparseRun(t, "chiplet:8x8,4x4,10x10")
	wall1M, heap := sparseRun(t, "chiplet:8x8,4x4,32x32")
	t.Logf("sparse 1M run: %.1f MiB live heap; wall %v, %.2f× the 100k run's %v",
		float64(heap)/(1<<20), wall1M.Round(time.Millisecond), float64(wall1M)/float64(wall100k), wall100k.Round(time.Millisecond))
	if heap > scale1MHeapCeiling {
		t.Errorf("live heap %d bytes exceeds the %d-byte ceiling", heap, uint64(scale1MHeapCeiling))
	}
}
