package simany

// Microbenchmarks of the simulator's own machinery: kernel scheduling
// throughput, network routing/contention cost, and the probe/spawn/join
// fast path. These are the quantities behind SiMany's headline claim of
// being orders of magnitude faster than flexible cycle-level approaches.

import (
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/network"
	"simany/internal/rt"
	"simany/internal/topology"
)

// BenchmarkHandoff measures the cheapest step the kernel can take — the
// shape behind the benchmark's core.handoff_ns: two neighbour cores on
// mesh:2x1 leapfrogging under a ten-cycle drift bound with ten-cycle
// blocks, so every step is a stall, a switch to the other core's task and
// nothing else. One op is one block; ns/step is the host cost of one
// scheduling step, and neither may allocate.
func BenchmarkHandoff(b *testing.B) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := core.New(core.Config{Topo: topo, Policy: core.Spatial{T: Cycles(10)}, Seed: 1})
	for c := 0; c < 2; c++ {
		k.InjectTask(c, "w", func(e *core.Env) {
			for j := 0; j < b.N/2; j++ {
				e.ComputeCycles(10)
			}
		}, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := k.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.Steps), "ns/step")
}

// BenchmarkNativeBlocks measures the native-execution fast path: a single
// core running annotation blocks without any interaction (no yields at
// all — the core of the paper's speed argument).
func BenchmarkNativeBlocks(b *testing.B) {
	topo := topology.Mesh(1)
	k := core.New(core.Config{Topo: topo, Seed: 1})
	k.InjectTask(0, "w", func(e *core.Env) {
		for i := 0; i < b.N; i++ {
			e.ComputeCycles(5)
		}
	}, nil, 0)
	b.ResetTimer()
	if _, err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNetworkSend measures routed message timing with contention on a
// 32x32 mesh (the 1024-core configuration).
func BenchmarkNetworkSend(b *testing.B) {
	m := network.New(topology.Mesh(1024), network.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := (i * 37) % 1024
		dst := (i*101 + 13) % 1024
		m.Send(network.Message{Src: src, Dst: dst, Size: 64, Stamp: Cycles(float64(i))})
	}
}

// BenchmarkSpawnJoin measures the full conditional-spawn round trip:
// probe, ack, task ship, start, completion, join notification.
func BenchmarkSpawnJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := core.New(core.Config{Topo: topology.Mesh(4), Mem: mem.NewShared(), Seed: 1})
		r := rt.New(k, nil, rt.DefaultOptions())
		if _, err := r.Run("root", func(e *core.Env) {
			g := r.NewGroup()
			for j := 0; j < 64; j++ {
				r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
					ce.ComputeCycles(100)
				})
			}
			r.Join(e, g)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedMemAccess measures the pessimistic-L1 + bank path.
func BenchmarkSharedMemAccess(b *testing.B) {
	k := core.New(core.Config{Topo: topology.Mesh(1), Mem: mem.NewShared(), Seed: 1})
	k.InjectTask(0, "w", func(e *core.Env) {
		for i := 0; i < b.N; i++ {
			e.EnterScope()
			e.Read(uint64(i%4096)*32, 16, 8)
			e.LeaveScope()
		}
	}, nil, 0)
	b.ResetTimer()
	if _, err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCellTransfer measures the distributed-memory cell round trip
// (DATA_REQUEST / DATA_RESPONSE with L2 install/evict).
func BenchmarkCellTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := core.New(core.Config{Topo: topology.Mesh(4), Mem: mem.NewDistributed(), Seed: 1})
		r := rt.New(k, nil, rt.DefaultOptions())
		if _, err := r.Run("root", func(e *core.Env) {
			l := r.NewCell(e, 256, int(0))
			g := r.NewGroup()
			for j := 0; j < 16; j++ {
				r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
					r.Access(ce, l, func(d any) any { return d.(int) + 1 })
				})
			}
			r.Join(e, g)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale1024Cores measures a whole small program on the paper's
// largest machine, dominated by idle-shadow propagation and scheduling
// scans — the costs that grow with machine size.
func BenchmarkScale1024Cores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := core.New(core.Config{Topo: topology.Mesh(1024), Mem: mem.NewShared(), Seed: 1})
		r := rt.New(k, nil, rt.DefaultOptions())
		if _, err := r.Run("root", func(e *core.Env) {
			g := r.NewGroup()
			var split func(e *core.Env, n int)
			split = func(e *core.Env, n int) {
				for n > 1 {
					half := n / 2
					r.SpawnOrRun(e, g, "s", 0, func(ce *core.Env) { split(ce, half) })
					n -= half
				}
				e.ComputeCycles(5000)
			}
			split(e, 256)
			r.Join(e, g)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
