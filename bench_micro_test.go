package simany

// Microbenchmarks of simulator paths that no benchmark/ workload reports
// on its own. The kernel handoff, network.Send, the spawn round trip and
// the distributed-memory cell transfer are measured there as per-layer
// metrics (core.handoff_ns, network.send_ns, rt.spawn_ns,
// mem.cell_access_ns; benchmark/README.md).

import (
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/topology"
)

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
