package core

import (
	"bytes"
	"testing"
	"unsafe"

	"simany/internal/snap"
	"simany/internal/timing"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestUnusedCoreSnapshotIsFresh: a core without run state encodes exactly
// the bytes it encodes once the state is allocated and still untouched,
// so checkpoints do not depend on which cores were used — with the default
// predictor and with one from Config.Predict.
func TestUnusedCoreSnapshotIsFresh(t *testing.T) {
	topo := topology.Mesh(16)
	for _, predict := range []func(int, int64) timing.Predictor{
		nil,
		func(id int, seed int64) timing.Predictor {
			return timing.NewProbabilisticPredictor(0.5, seed*3+int64(id))
		},
	} {
		k := New(Config{Topo: topo, Seed: 11, Predict: predict})
		var scratch runState
		encode := func(c *Core) []byte {
			enc := snap.NewEncoder()
			c.snapshot(enc, &scratch)
			return enc.Bytes()
		}
		for _, c := range k.cores {
			if c.run != nil {
				t.Fatalf("core %d has run state before its first use", c.ID)
			}
			absent := encode(c)
			c.use()
			if present := encode(c); !bytes.Equal(absent, present) {
				t.Fatalf("core %d: unused core encodes %x, fresh run state %x", c.ID, absent, present)
			}
		}
	}
}

// TestRunStateOnlyOnUsedCores: after a 64-task sparse run on the
// 1024-core chiplet machine, on both engines, exactly the cores that
// started a task hold run state.
func TestRunStateOnlyOnUsedCores(t *testing.T) {
	topo := topology.Chiplet([]topology.Tier{
		{W: 8, H: 8, Lat: topology.DefaultLatency, BW: topology.DefaultBandwidth},
		{W: 4, H: 4, Lat: topology.DefaultLatency, BW: topology.DefaultBandwidth},
	})
	for _, shards := range []int{1, 16} {
		k := New(Config{Topo: topo, Seed: 42, Shards: shards, Workers: 2})
		ran := make([]bool, topo.N())
		k.SetTaskStartHook(func(c *Core, _ *Task) { ran[c.ID] = true })
		const tasks = 64
		for i := 0; i < tasks; i++ {
			k.InjectTask(i*(topo.N()/tasks), "w", func(e *Env) {
				for s := 0; s < 20; s++ {
					e.ComputeCycles(100)
				}
			}, nil, 0)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, c := range k.cores {
			if (c.run != nil) != ran[c.ID] {
				t.Fatalf("shards=%d: core %d ran a task: %v, holds run state: %v", shards, c.ID, ran[c.ID], c.run != nil)
			}
			if c.run != nil {
				used++
			}
		}
		if used != tasks {
			t.Fatalf("shards=%d: %d cores hold run state, want %d", shards, used, tasks)
		}
	}
}

// TestUnusedCoreReadsAllocateNothing: reading an unused core's queues and
// stamps, and evicting from its (empty) L2, allocates nothing and leaves
// it without run state; an L2 install allocates it.
func TestUnusedCoreReadsAllocateNothing(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(16), Seed: 3})
	c := k.Core(5)
	allocs := testing.AllocsPerRun(100, func() {
		c.EvictL2(4096, 256)
		if c.QueueLength() != 0 || c.NextEventTime() != vtime.Inf || c.minBirth() != vtime.Inf {
			t.Fatal("unused core reads a non-fresh state")
		}
	})
	if allocs != 0 || c.run != nil {
		t.Fatalf("%v allocations, run state allocated: %v", allocs, c.run != nil)
	}
	c.L2().Install(4096, 256)
	if c.run == nil || !c.L2().Contains(4096) {
		t.Fatal("an L2 install did not allocate the core's run state")
	}
}

// TestCoreLayout guards the inline Core's shape: at most two 64-byte cache
// lines, with every field a neighbour's pass reads (effSite's notify loop,
// lazyFix's ring walk, minNeighborEff) in the first. Moving fields alone
// has measured ±5 % on the dense and sparse benchmarks.
func TestCoreLayout(t *testing.T) {
	var c Core
	if size := unsafe.Sizeof(c); size > 128 {
		t.Errorf("Core is %d bytes, more than two cache lines", size)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"dom", unsafe.Offsetof(c.dom), unsafe.Sizeof(c.dom)},
		{"eff", unsafe.Offsetof(c.eff), unsafe.Sizeof(c.eff)},
		{"effStamp", unsafe.Offsetof(c.effStamp), unsafe.Sizeof(c.effStamp)},
		{"effSeen", unsafe.Offsetof(c.effSeen), unsafe.Sizeof(c.effSeen)},
		{"vt", unsafe.Offsetof(c.vt), unsafe.Sizeof(c.vt)},
		{"links", unsafe.Offsetof(c.links), unsafe.Sizeof(c.links)},
		{"idleNb", unsafe.Offsetof(c.idleNb), unsafe.Sizeof(c.idleNb)},
		{"idle", unsafe.Offsetof(c.idle), unsafe.Sizeof(c.idle)},
		{"current", unsafe.Offsetof(c.current), unsafe.Sizeof(c.current)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("Core.%s ends at byte %d, outside the first cache line", f.name, end)
		}
	}
}
