package mem

import (
	"testing"

	"simany/internal/cache"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func TestAllocatorAlignmentAndDisjoint(t *testing.T) {
	a := NewAllocator()
	p := a.Alloc(100)
	q := a.Alloc(1)
	r := a.Alloc(64)
	if p == 0 {
		t.Error("address 0 must not be allocated")
	}
	if p%cache.DefaultLineSize != 0 || q%cache.DefaultLineSize != 0 || r%cache.DefaultLineSize != 0 {
		t.Error("allocations not line-aligned")
	}
	if q < p+100 {
		t.Error("allocations overlap")
	}
	if r < q+1 {
		t.Error("allocations overlap")
	}
	if a.Alloc(0) == a.Alloc(0) {
		t.Error("zero-size allocations must still be distinct")
	}
}

// memKernel builds a one- or two-core machine with the given MemSystem.
func memKernel(n int, ms core.MemSystem) *core.Kernel {
	return core.New(core.Config{Topo: topology.Mesh(n), Mem: ms, Seed: 1})
}

// measure runs fn in a task on core 0 and returns the memory-time spent.
func measure(t *testing.T, k *core.Kernel, fn func(e *core.Env)) vtime.Time {
	t.Helper()
	k.InjectTask(0, "m", fn, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return memTime(k, 0)
}

func TestSharedHitMissLatency(t *testing.T) {
	s := NewShared()
	k := memKernel(1, s)
	got := measure(t, k, func(e *core.Env) {
		e.EnterScope()
		// 8 accesses of 8 bytes in 2 lines: 2 misses, 6 hits.
		e.Read(0, 8, 8)
		e.LeaveScope()
	})
	want := 6*s.HitLat + 2*(s.HitLat+s.BankLat)
	if got != want {
		t.Errorf("shared access time = %v, want %v", got, want)
	}
}

func TestSharedScopeDiscard(t *testing.T) {
	s := NewShared()
	k := memKernel(1, s)
	got := measure(t, k, func(e *core.Env) {
		e.EnterScope()
		e.Read(0, 4, 8) // 1 line: 1 miss, 3 hits
		e.LeaveScope()
		e.EnterScope()
		e.Read(0, 4, 8) // same line misses again: pessimistic model
		e.LeaveScope()
	})
	want := 2 * (3*s.HitLat + 1*(s.HitLat+s.BankLat))
	if got != want {
		t.Errorf("scoped access time = %v, want %v", got, want)
	}
}

func TestSharedL1SpeedScaling(t *testing.T) {
	s := NewShared()
	topo := topology.Mesh(2)
	k := core.New(core.Config{Topo: topo, Mem: s, Speeds: []float64{0.5, 1.0}, Seed: 1})
	k.InjectTask(0, "slow", func(e *core.Env) {
		e.EnterScope()
		e.Read(0, 8, 8)
		e.LeaveScope()
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 6 hits at 2cy (scaled 1/0.5) + 2 misses at (2+10)cy.
	want := 6*vtime.CyclesInt(2) + 2*(vtime.CyclesInt(2)+s.BankLat)
	if got := memTime(k, 0); got != want {
		t.Errorf("scaled L1 time = %v, want %v", got, want)
	}

	// With scaling disabled (cycle-level behaviour), the L1 stays 1cy.
	s2 := NewShared()
	s2.ScaleL1WithSpeed = false
	k2 := core.New(core.Config{Topo: topo, Mem: s2, Speeds: []float64{0.5, 1.0}, Seed: 1})
	k2.InjectTask(0, "slow", func(e *core.Env) {
		e.EnterScope()
		e.Read(0, 8, 8)
		e.LeaveScope()
	}, nil, 0)
	if _, err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	want2 := 6*s2.HitLat + 2*(s2.HitLat+s2.BankLat)
	if got := memTime(k2, 0); got != want2 {
		t.Errorf("unscaled L1 time = %v, want %v", got, want2)
	}
}

func TestSharedCoherenceCharged(t *testing.T) {
	topo := topology.Mesh(2)
	s := NewShared().WithCoherence()
	k := core.New(core.Config{Topo: topo, Mem: s, Seed: 1})
	var rdTime, wrTime vtime.Time
	k.InjectTask(0, "reader", func(e *core.Env) {
		e.EnterScope()
		e.Read(0, 4, 8)
		rdTime = memTime(k, 0)
		e.LeaveScope()
	}, nil, 0)
	k.InjectTask(1, "writer", func(e *core.Env) {
		// Runs after the reader finishes (same virtual order is not
		// guaranteed, but the directory is wall-order based; inject with
		// compute to order them).
		e.ComputeCycles(1000)
		e.EnterScope()
		before := memTime(k, 1)
		e.Write(0, 4, 8)
		wrTime = memTime(k, 1) - before
		e.LeaveScope()
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The writer must pay at least one invalidation beyond the plain miss.
	plain := 3*s.HitLat + (s.HitLat + s.BankLat)
	if wrTime < plain+s.InvLat {
		t.Errorf("write with sharer cost %v, want >= %v", wrTime, plain+s.InvLat)
	}
	if rdTime != plain {
		t.Errorf("cold read cost %v, want %v", rdTime, plain)
	}
}

func TestDistributedL2Path(t *testing.T) {
	m := NewDistributed()
	k := memKernel(1, m)
	got := measure(t, k, func(e *core.Env) {
		e.EnterScope()
		e.Read(0, 8, 8) // 2 lines: L1 misses -> L2 cold misses
		e.LeaveScope()
		e.EnterScope()
		e.Read(0, 8, 8) // L1 discarded; L2 now warm
		e.LeaveScope()
	})
	cold := 6*m.HitLat + 2*(m.HitLat+m.L2Lat+m.LocalMemLat)
	warm := 6*m.HitLat + 2*(m.HitLat+m.L2Lat)
	if got != cold+warm {
		t.Errorf("distributed access time = %v, want %v", got, cold+warm)
	}
}

// TestDistributedL2ChargesLeadingLines pins which lines an L1 miss count
// is charged to in the L2: the first `misses` lines of the range, not the
// lines that missed L1 (cache.L2.AccessRange; ROADMAP item 5). A range
// whose first half is L1-resident therefore re-touches that half in the
// L2, hits there, and never installs its second half.
func TestDistributedL2ChargesLeadingLines(t *testing.T) {
	m := NewDistributed()
	k := memKernel(1, m)
	got := measure(t, k, func(e *core.Env) {
		e.EnterScope()
		e.Read(0, 8, 8)  // lines 0,1: L1 misses, L2 cold misses
		e.Read(0, 16, 8) // lines 0..3: 2,3 miss L1; the L2 is asked for 0,1
		e.LeaveScope()
	})
	first := 6*m.HitLat + 2*(m.HitLat+m.L2Lat+m.LocalMemLat)
	second := 14*m.HitLat + 2*(m.HitLat+m.L2Lat)
	if got != first+second {
		t.Errorf("distributed access time = %v, want %v", got, first+second)
	}
	l2 := k.Core(0).L2()
	if !l2.Contains(0) || !l2.Contains(32) || l2.Contains(64) || l2.Contains(96) {
		t.Error("L2 should hold lines 0,1 and not the lines 2,3 that missed L1")
	}
	reg := k.Metrics()
	h := reg.Vector("cache.l2.hit", metrics.UnitCount, 1).At(0)
	miss := reg.Vector("cache.l2.miss", metrics.UnitCount, 1).At(0)
	if h != 2 || miss != 2 {
		t.Errorf("L2 counts = %d/%d, want 2/2", h, miss)
	}
}

func TestCellStoreBasics(t *testing.T) {
	st := NewCellStore(NewAllocator())
	l := st.New(3, 128, []int{1, 2, 3})
	if l.Nil() {
		t.Fatal("new link is nil")
	}
	c := st.Get(l)
	if c.Owner() != 3 || c.Size() != 128 {
		t.Errorf("cell = owner %d size %d", c.Owner(), c.Size())
	}
	if c.Addr() == 0 {
		t.Error("cell has no address")
	}
	if got := c.Data().([]int); len(got) != 3 {
		t.Error("payload lost")
	}
	c.SetData([]int{9})
	if got := c.Data().([]int); got[0] != 9 {
		t.Error("SetData lost")
	}
	c.SetOwner(5)
	if c.Owner() != 5 {
		t.Error("SetOwner lost")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestCellLockProtocol(t *testing.T) {
	st := NewCellStore(NewAllocator())
	l := st.New(0, 8, nil)
	c := st.Get(l)
	if c.Locked() || c.LockHolder() != 0 {
		t.Error("fresh cell locked")
	}
	c.Lock(42)
	if !c.Locked() || c.LockHolder() != 42 {
		t.Error("lock not taken")
	}
	c.PushWaiter("w1")
	c.PushWaiter("w2")
	w, ok := c.PopWaiter()
	if !ok || w.(string) != "w1" {
		t.Error("waiter order wrong")
	}
	c.Unlock(42)
	if c.Locked() {
		t.Error("unlock failed")
	}
	if _, ok := c.PopWaiter(); !ok {
		t.Error("second waiter lost")
	}
	if _, ok := c.PopWaiter(); ok {
		t.Error("phantom waiter")
	}
}

func TestCellLockPanics(t *testing.T) {
	st := NewCellStore(NewAllocator())
	c := st.Get(st.New(0, 8, nil))
	c.Lock(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double lock must panic")
			}
		}()
		c.Lock(2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unlock by non-holder must panic")
			}
		}()
		c.Unlock(99)
	}()
}

func TestGetInvalidLinkPanics(t *testing.T) {
	st := NewCellStore(NewAllocator())
	defer func() {
		if recover() == nil {
			t.Error("nil link dereference must panic")
		}
	}()
	st.Get(Link{})
}

// memTime returns core i's core.mem entry: the virtual time it spent in
// memory accesses.
func memTime(k *core.Kernel, i int) vtime.Time {
	return vtime.Time(k.Metrics().Vector("core.mem", metrics.UnitTime, k.NumCores()).At(i))
}
