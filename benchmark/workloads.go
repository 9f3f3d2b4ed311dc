package main

import (
	"fmt"
	"time"

	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/rt"
	"simany/internal/topology"
)

// sizes are the dimensions of every workload. fullSizes is what the numbers
// in BENCHMARK.json and the README mean; tinySizes keeps the whole program
// under a few seconds so the tier-1 smoke test can run it.
type sizes struct {
	name string // golden-fingerprint section

	sharedCores int
	sharedScale float64
	distCores   int
	distScale   float64

	stormSpec  string
	stormDepth int

	sparseSpec   string
	sparseTasks  int
	sparseSlices int

	denseSpec   string
	denseSlices int

	shardedSpec  string
	shardedDepth int
	shards       int

	// Micro-driver sizes (traced run only).
	microOps      int // network sends / routes
	handoffSlices int // per core on mesh:2x1
	cellAccesses  int // per task on mesh:2x1
	overheadDepth int // spawn tree for trace/metrics overhead
	nativeCalls   int // RunNative samples per dwarf
}

var fullSizes = sizes{
	name:        "full",
	sharedCores: 256, sharedScale: 8,
	distCores: 64, distScale: 4,
	stormSpec: "mesh:8x8", stormDepth: 20,
	sparseSpec: "chiplet:8x8,4x4,10x10", sparseTasks: 256, sparseSlices: 600,
	denseSpec: "chiplet:8x8,4x4", denseSlices: 4000,
	shardedSpec: "chiplet:8x8,4x4", shardedDepth: 18, shards: 16,
	microOps: 200000, handoffSlices: 50000, cellAccesses: 20000,
	overheadDepth: 17, nativeCalls: 11,
}

var tinySizes = sizes{
	name:        "tiny",
	sharedCores: 16, sharedScale: 0.25,
	distCores: 16, distScale: 0.25,
	stormSpec: "mesh:4x4", stormDepth: 8,
	sparseSpec: "chiplet:4x4,2x2", sparseTasks: 4, sparseSlices: 50,
	denseSpec: "mesh:4x4", denseSlices: 100,
	shardedSpec: "chiplet:2x2,2x2", shardedDepth: 8, shards: 4,
	microOps: 2000, handoffSlices: 500, cellAccesses: 50,
	overheadDepth: 8, nativeCalls: 3,
}

// machine is one prepared simulation: a fresh kernel with its tasks
// injected, ready to run once.
type machine struct {
	k     *core.Kernel
	r     *rt.Runtime // nil when the workload drives the kernel directly
	run   func() (core.Result, error)
	check func() bool // simulated output equals the native one; nil = no output
}

// sim is one simulation of a rep. prepare is timed as setup_s, the
// machine's run as sim_wall_s.
type sim struct {
	name    string
	prepare func(tr *tracer, v variant) (*machine, error)
}

// variant selects the instrumented and alternative-engine forms the traced
// run needs; the zero value is the workload as BENCHMARK.json describes it.
type variant struct {
	workers int               // sharded-1k only: host threads driving the shards; 0 = 1
	seq     bool              // sharded-1k only: same tree on the sequential engine
	metrics *metrics.Registry // attached to the kernel when non-nil
}

// procs is the GOMAXPROCS a rep of this variant runs under: one P per
// thread the engine can keep busy, and no more. The sequential engine runs
// one goroutine at a time, handing off between the kernel and its tasks; a
// second P turns many of those handoffs into wake-ups of another host
// thread, which costs time and, on a shared host, is where the noise lives
// (README, "Host shape").
func (v variant) procs() int { return max(1, v.workers) }

// workload is one named set of inputs.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json
	// sharded marks the one workload on the sharded engine: its traced
	// reps attach a metrics registry and run the same tree on two workers
	// and on the sequential engine for the core.shard.* ratios.
	sharded bool
	// accuracy marks the workload whose traced run also states the model's
	// error against the cycle-level reference (cl_speedup_err_pct).
	accuracy bool
	// sims returns the simulations of one rep; the dwarfs also return the
	// native checksums and wall times they measured first.
	sims func(sz sizes, seed int64, tr *tracer) ([]sim, *natives)
}

var workloads = []workload{
	{name: "dwarfs-shared", accuracy: true,
		why: "the paper's six benchmarks on a 256-core shared-memory mesh at scale 8: every layer works, none dominates",
		sims: func(sz sizes, seed int64, tr *tracer) ([]sim, *natives) {
			return dwarfSims(sz.sharedCores, sz.sharedScale, config.SharedMem, seed, sz.nativeCalls, tr)
		}},
	{name: "dwarfs-dist",
		why: "the same six on a 64-core distributed-memory mesh at scale 4: adds mem cells, DATA_REQUEST chasing, multi-hop routes",
		sims: func(sz sizes, seed int64, tr *tracer) ([]sim, *natives) {
			return dwarfSims(sz.distCores, sz.distScale, config.DistributedMem, seed, sz.nativeCalls, tr)
		}},
	{name: "spawn-storm",
		why: "depth-20 SpawnOrRun tree on mesh:8x8 with near-empty bodies: task handoff, rt probe/spawn/join and network.Send do everything",
		sims: func(sz sizes, seed int64, _ *tracer) ([]sim, *natives) {
			return []sim{treeSim(sz.stormSpec, sz.stormDepth, 1, seed)}, nil
		}},
	{name: "sparse-100k",
		why: "256 busy cores x 600 slices on the 102400-core chiplet machine, no messages: lazy effective-time evaluation over idle regions",
		sims: func(sz sizes, seed int64, _ *tracer) ([]sim, *natives) {
			return []sim{computeSim(sz.sparseSpec, sz.sparseTasks, sz.sparseSlices, seed)}, nil
		}},
	{name: "dense-1k",
		why: "all 1024 cores busy x 4000 slices, no messages: the same scheduler with no idle region, so stall/wake and neighbour notification",
		sims: func(sz sizes, seed int64, _ *tracer) ([]sim, *natives) {
			return []sim{computeSim(sz.denseSpec, 0, sz.denseSlices, seed)}, nil
		}},
	{name: "sharded-1k", sharded: true,
		why: "depth-18 spawn tree on 1024 cores in 16 shards, one worker: the only workload with barrier drain, merge and stall",
		sims: func(sz sizes, seed int64, _ *tracer) ([]sim, *natives) {
			return []sim{treeSim(sz.shardedSpec, sz.shardedDepth, sz.shards, seed)}, nil
		}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// natives holds, per dwarf, the reference checksum and the native wall time
// that slowdown_vs_native divides by. It is filled once per process, before
// the reps, because the paper's Fig. 7 base is a property of the input and
// not of the simulator.
type natives struct {
	sum  map[string]uint64
	wall map[string]time.Duration
}

// measureNatives runs every dwarf natively calls times on the workload's
// inputs and keeps the checksum and the median wall time.
func measureNatives(scale float64, seed int64, calls int, tr *tracer) *natives {
	nat := &natives{sum: map[string]uint64{}, wall: map[string]time.Duration{}}
	for _, b := range bench.All() {
		b.Generate(seed, scale)
		samples := make([]float64, calls)
		tr.span("bench.native_s", func() {
			for i := range samples {
				start := time.Now()
				nat.sum[b.Name()] = b.RunNative()
				samples[i] = time.Since(start).Seconds()
			}
		})
		nat.wall[b.Name()] = time.Duration(median(samples) * float64(time.Second))
	}
	return nat
}

// dwarfSims is the harness lifecycle (Generate / Program / rt.Run / finish)
// for each of the six paper benchmarks on a uniform mesh.
func dwarfSims(cores int, scale float64, kind config.MemKind, seed int64, nativeCalls int, tr *tracer) ([]sim, *natives) {
	nat := measureNatives(scale, seed, nativeCalls, tr)
	mode := bench.Shared
	if kind == config.DistributedMem {
		mode = bench.Distributed
	}
	var out []sim
	for _, name := range bench.Names() {
		out = append(out, sim{name: name, prepare: func(tr *tracer, v variant) (*machine, error) {
			b, err := bench.ByName(name)
			if err != nil {
				return nil, err
			}
			tr.span("bench.generate_s", func() { b.Generate(seed, scale) })
			m := &machine{}
			tr.span("config.build_s", func() {
				m.k, m.r, err = config.Machine{
					Cores: cores, Mem: kind, T: core.DefaultT, Seed: seed, Metrics: v.metrics,
				}.Build()
			})
			if err != nil {
				return nil, err
			}
			root, finish := b.Program(m.r, mode)
			m.run = func() (core.Result, error) { return m.r.Run(name, root) }
			m.check = func() bool {
				ok := false
				tr.span("bench.finish_s", func() { ok = finish() == nat.sum[name] })
				return ok
			}
			return m, nil
		}})
	}
	return out, nat
}

// newKernel parses spec and builds a kernel on it, with the spans the
// setup-side layer metrics are read from.
func newKernel(tr *tracer, spec string, cfg core.Config) (*machine, error) {
	m := &machine{}
	var err error
	tr.span("topology.parse_s", func() { cfg.Topo, err = topology.ParseSpec(spec) })
	if err != nil {
		return nil, err
	}
	cfg.Policy = core.Spatial{T: core.DefaultT}
	tr.span("core.new_s", func() { m.k = core.New(cfg) })
	return m, nil
}

// treeSim is the BenchmarkHotPath body: a binary SpawnOrRun tree whose
// nodes compute 30 cycles, joined at the root.
func treeSim(spec string, depth, shards int, seed int64) sim {
	return sim{name: "tree", prepare: func(tr *tracer, v variant) (*machine, error) {
		cfg := core.Config{Seed: seed, Metrics: v.metrics}
		if shards > 1 && !v.seq {
			cfg.Shards = shards
			cfg.Workers = v.procs()
		}
		m, err := newKernel(tr, spec, cfg)
		if err != nil {
			return nil, err
		}
		tr.span("rt.new_s", func() { m.r = rt.New(m.k, nil, rt.DefaultOptions()) })
		m.run = func() (core.Result, error) { return runTree(m.r, depth) }
		return m, nil
	}}
}

// runTree runs the binary SpawnOrRun tree of the given depth on r.
func runTree(r *rt.Runtime, depth int) (core.Result, error) {
	var g *rt.Group
	var node func(depth int) func(*core.Env)
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
	return r.Run("tree", func(e *core.Env) {
		g = r.NewGroup()
		node(depth)(e)
		r.Join(e, g)
	})
}

// computeSim injects tasks strided compute-only tasks (0 = one per core) of
// slices ComputeCycles(100) blocks: no runtime, no messages.
func computeSim(spec string, tasks, slices int, seed int64) sim {
	return sim{name: "compute", prepare: func(tr *tracer, v variant) (*machine, error) {
		m, err := newKernel(tr, spec, core.Config{Seed: seed, Metrics: v.metrics})
		if err != nil {
			return nil, err
		}
		n := m.k.NumCores()
		busy := tasks
		if busy == 0 || busy > n {
			busy = n
		}
		stride := n / busy
		for t := 0; t < busy; t++ {
			m.k.InjectTask(t*stride, "w", func(e *core.Env) {
				for s := 0; s < slices; s++ {
					e.ComputeCycles(100)
				}
			}, nil, 0)
		}
		m.run = m.k.Run
		return m, nil
	}}
}
