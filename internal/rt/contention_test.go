package rt

import (
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestLockWaiterHandoff forces real blocking on a shared-memory lock: the
// holder computes long enough that contenders must park, exercising the
// waiter queue and the release handoff stamps.
func TestLockWaiterHandoff(t *testing.T) {
	k := core.New(core.Config{Topo: topology.Mesh(4), Mem: mem.NewShared(), Seed: 5})
	r := New(k, nil, DefaultOptions())
	lk := r.NewLock()
	var acquires []vtime.Time
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 4; i++ {
			r.SpawnOrRun(e, g, "locker", 0, func(ce *core.Env) {
				r.AcquireLock(ce, lk)
				acquires = append(acquires, ce.Now())
				ce.ComputeCycles(2000) // long critical section forces waiters
				r.ReleaseLock(ce, lk)
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(acquires) != 4 {
		t.Fatalf("acquires = %d", len(acquires))
	}
	// Every handed-off acquisition happens at least a critical section
	// after the previous one (the handoff stamp is causal).
	for i := 1; i < len(acquires); i++ {
		if acquires[i] < acquires[i-1]+vtime.CyclesInt(2000) {
			t.Errorf("acquire %d at %v, previous at %v: handoff not causal",
				i, acquires[i], acquires[i-1])
		}
	}
	if r.Stats().JoinWaits == 0 {
		t.Error("join should have waited")
	}
}

// TestTaskMigration drives the progressive-migration path: reservations
// are artificially consumed so TASK_SPAWN lands on a full queue and must
// be forwarded to a less-loaded neighbor (§IV).
func TestTaskMigration(t *testing.T) {
	topo := topology.Mesh2D(3, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := core.New(core.Config{Topo: topo, Mem: mem.NewShared(), Seed: 5})
	opt := DefaultOptions()
	opt.QueueCap = 1
	r := New(k, nil, opt)
	// Fill core 1's queue directly, then ship one more task to it without
	// a reservation; the spawn handler must forward it.
	victim := rtTask(k, 1, "victim", func(e *core.Env) {
		e.ComputeCycles(10)
	})
	k.PlaceTask(victim, 1, 0, nil)
	stuffed := rtTask(k, 1, "stuffed", func(e *core.Env) {
		e.ComputeCycles(10_000)
	})
	k.PlaceTask(stuffed, 1, 0, nil)

	migrated := rtTask(k, 0, "migrated", func(e *core.Env) {
		e.ComputeCycles(10)
	})
	k.SendAt(0, 1, KindTaskSpawn, 64, migrated, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Migrations == 0 {
		t.Error("expected a migration")
	}
	if migrated.State() != core.TaskDone {
		t.Error("migrated task did not finish")
	}
	if migrated.Core().ID == 1 {
		t.Error("task was not actually moved")
	}
}

// TestMigrationHopBound verifies the MaxMigrations backstop: when every
// core is saturated the task is eventually placed anyway instead of
// bouncing forever.
func TestMigrationHopBound(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := core.New(core.Config{Topo: topo, Mem: mem.NewShared(), Seed: 5})
	opt := DefaultOptions()
	opt.QueueCap = 1
	opt.MaxMigrations = 2
	r := New(k, nil, opt)
	for c := 0; c < 2; c++ {
		for j := 0; j < 2; j++ {
			tk := rtTask(k, c, "filler", func(e *core.Env) {
				e.ComputeCycles(100)
			})
			k.PlaceTask(tk, c, 0, nil)
		}
	}
	extra := rtTask(k, 0, "extra", func(e *core.Env) {
		e.ComputeCycles(10)
	})
	k.SendAt(0, 1, KindTaskSpawn, 64, extra, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if extra.State() != core.TaskDone {
		t.Error("bounced task never ran")
	}
	if got := r.Stats().Migrations; got > int64(opt.MaxMigrations) {
		t.Errorf("migrations = %d, bound %d", got, opt.MaxMigrations)
	}
}

// TestCellRemoteWaiterGrant exercises grantNext's cross-core transfer: a
// remote request arrives while the cell is locked, is parked as a waiter,
// and must be granted with a DATA_RESPONSE at unlock time.
func TestCellRemoteWaiterGrant(t *testing.T) {
	k := core.New(core.Config{Topo: topology.Mesh(4), Mem: mem.NewDistributed(), Seed: 5})
	r := New(k, nil, DefaultOptions())
	var order []int
	_, err := r.Run("root", func(e *core.Env) {
		l := r.NewCell(e, 64, int(0))
		g := r.NewGroup()
		// Several remote contenders with long holds guarantee that later
		// requests find the cell locked.
		for i := 0; i < 6; i++ {
			i := i
			r.SpawnOrRun(e, g, "contender", 0, func(ce *core.Env) {
				r.Access(ce, l, func(d any) any {
					order = append(order, i)
					ce.ComputeCycles(3000)
					return d.(int) + 1
				})
			})
		}
		r.Join(e, g)
		r.Access(e, l, func(d any) any {
			if d.(int) != 6 {
				t.Errorf("cell counter = %d, want 6", d.(int))
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("accesses = %d", len(order))
	}
	if r.Stats().DataReqs == 0 {
		t.Error("no remote data requests")
	}
}

// TestCellLocalWaiter covers the same-core waiter path: two tasks on one
// core contend for a local cell.
func TestCellLocalWaiter(t *testing.T) {
	k := core.New(core.Config{Topo: topology.Mesh(1), Mem: mem.NewDistributed(), Seed: 5})
	r := New(k, nil, DefaultOptions())
	var link mem.Link
	_, err := r.Run("root", func(e *core.Env) {
		link = r.NewCell(e, 32, int(0))
		// Two additional tasks on the same core; the runtime must
		// serialize their accesses through the local waiter queue.
		t1 := rtTask(k, 0, "t1", func(ce *core.Env) {
			r.Access(ce, link, func(d any) any { return d.(int) + 1 })
		})
		k.PlaceTask(t1, 0, e.Now(), nil)
		t2 := rtTask(k, 0, "t2", func(ce *core.Env) {
			r.Access(ce, link, func(d any) any { return d.(int) + 10 })
		})
		k.PlaceTask(t2, 0, e.Now(), nil)
		r.Access(e, link, func(d any) any { return d.(int) + 100 })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CellData(link).(int); got != 111 {
		t.Errorf("cell = %d, want 111", got)
	}
}

// TestRuntimeAccessors covers the trivial getters.
func TestRuntimeAccessors(t *testing.T) {
	k := core.New(core.Config{Topo: topology.Mesh(2), Mem: mem.NewShared(), Seed: 1})
	r := New(k, nil, DefaultOptions())
	if r.Kernel() != k {
		t.Error("Kernel accessor")
	}
	if r.Alloc() == nil {
		t.Error("Alloc accessor")
	}
	g := r.NewGroup()
	if g.Active() != 0 {
		t.Error("fresh group active count")
	}
}

// rtTask creates a runtime task running fn on core c, for tests that place
// or ship tasks by hand.
func rtTask(k *core.Kernel, c int, name string, fn func(*core.Env)) *core.Task {
	return k.NewTask(c, name, runTask, &taskMeta{fn: fn})
}
