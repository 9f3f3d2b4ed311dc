package rt

import (
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func newRT(n int) (*core.Kernel, *Runtime) {
	k := core.New(core.Config{Topo: topology.Mesh(n), Mem: mem.NewShared(), Seed: 7})
	return k, New(k, nil, DefaultOptions())
}

func TestRootRuns(t *testing.T) {
	_, r := newRT(4)
	ran := false
	res, err := r.Run("root", func(e *core.Env) {
		e.ComputeCycles(50)
		ran = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("root did not run")
	}
	if res.FinalVT < vtime.CyclesInt(60) {
		t.Errorf("FinalVT = %v", res.FinalVT)
	}
}

func TestSpawnOrRunSpreadsWork(t *testing.T) {
	k, r := newRT(4)
	usedCores := map[int]bool{}
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 8; i++ {
			r.SpawnOrRun(e, g, "child", 16, func(ce *core.Env) {
				ce.ComputeCycles(500)
				usedCores[ce.CoreID()] = true
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(usedCores) < 2 {
		t.Errorf("work did not spread: cores %v", usedCores)
	}
	st := r.Stats()
	if st.Spawns == 0 || st.Probes == 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.Spawns > 8 {
		t.Errorf("more spawns than requested: %+v", st)
	}
	_ = k
}

func TestConditionalSpawnFallsBackSequentially(t *testing.T) {
	// Single core: no neighbors, every spawn runs inline.
	_, r := newRT(1)
	runs := 0
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 5; i++ {
			spawned := r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) { runs++ })
			if spawned {
				t.Error("spawned with no neighbors")
			}
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 5 {
		t.Errorf("runs = %d", runs)
	}
	if st := r.Stats(); st.LocalRuns != 5 || st.Probes != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestJoinWaitsForAllChildren(t *testing.T) {
	_, r := newRT(4)
	var childEnds []vtime.Time
	var joinVT vtime.Time
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 6; i++ {
			r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
				ce.ComputeCycles(300)
				childEnds = append(childEnds, ce.Now())
			})
		}
		r.Join(e, g)
		joinVT = e.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := len(childEnds); g != 6 {
		t.Fatalf("children ran %d times", g)
	}
	var maxEnd vtime.Time
	for _, v := range childEnds {
		if v > maxEnd {
			maxEnd = v
		}
	}
	if joinVT < maxEnd {
		t.Errorf("join completed at %v before last child end %v", joinVT, maxEnd)
	}
}

// TestJoinFinishedGroupWaitsUntilLastEnd: joining a group whose members
// all ended is a wait for the last end stamp, not work: the clock lands
// exactly on it whatever the joining core's speed.
func TestJoinFinishedGroupWaitsUntilLastEnd(t *testing.T) {
	for _, speed := range []float64{0.5, 1.5} {
		k := core.New(core.Config{Topo: topology.Mesh(4), Mem: mem.NewShared(), Seed: 7,
			Speeds: []float64{speed, speed, speed, speed}})
		r := New(k, nil, DefaultOptions())
		var joinVT, lastEnd vtime.Time
		_, err := r.Run("root", func(e *core.Env) {
			g := r.NewGroup()
			g.lastEnd = e.Now() + vtime.CyclesInt(90)
			lastEnd = g.lastEnd
			r.Join(e, g)
			joinVT = e.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		if joinVT != lastEnd {
			t.Errorf("speed %v: join returned at %v, want the group's last end %v", speed, joinVT, lastEnd)
		}
	}
}

func TestNestedGroups(t *testing.T) {
	_, r := newRT(8)
	leaves := 0
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 3; i++ {
			r.SpawnOrRun(e, g, "mid", 0, func(me *core.Env) {
				g2 := r.NewGroup()
				for j := 0; j < 3; j++ {
					r.SpawnOrRun(me, g2, "leaf", 0, func(le *core.Env) {
						le.ComputeCycles(100)
						leaves++
					})
				}
				r.Join(me, g2)
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != 9 {
		t.Errorf("leaves = %d", leaves)
	}
}

func TestQueueCapDeniesProbes(t *testing.T) {
	// A 2-core machine: one neighbor. Flood it with slow tasks; once the
	// queue fills, probes must be denied and work must run inline.
	k := core.New(core.Config{
		Topo: topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth),
		Mem:  mem.NewShared(), Seed: 7,
	})
	opt := DefaultOptions()
	opt.QueueCap = 2
	r := New(k, nil, opt)
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 12; i++ {
			r.SpawnOrRun(e, g, "slow", 0, func(ce *core.Env) {
				ce.ComputeCycles(5000)
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Denied == 0 && st.LocalRuns == 0 {
		t.Errorf("expected denials or local runs with tiny queue: %+v", st)
	}
	if st.Spawns == 0 {
		t.Errorf("expected some successful spawns: %+v", st)
	}
}

func TestGroupSingleJoinerPanics(t *testing.T) {
	_, r := newRT(2)
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		g.active = 1
		g.waiting = true // simulate a second joiner already registered
		r.Join(e, g)
	})
	if err == nil {
		t.Fatal("expected error from double join panic")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	_, r := newRT(4)
	var inside, maxInside int
	var critical []vtime.Time
	lk := r.NewLock()
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 6; i++ {
			r.SpawnOrRun(e, g, "locker", 0, func(ce *core.Env) {
				r.AcquireLock(ce, lk)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				start := ce.Now()
				ce.ComputeCycles(100)
				critical = append(critical, start, ce.Now())
				inside--
				r.ReleaseLock(ce, lk)
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Errorf("mutual exclusion violated: %d tasks inside", maxInside)
	}
	// Critical sections serialize in simulation order (mutual exclusion of
	// the simulated program state). Their virtual-time intervals MAY
	// overlap: lock acquisitions from different tasks can be processed out
	// of virtual-time order, which is the documented accuracy/speed bias
	// of §II.A — only per-task ordering is guaranteed. Sections entered
	// through an explicit handoff, however, carry causal stamps: a waiter
	// woken by a release resumes no earlier than the release.
	if len(critical) != 12 {
		t.Fatalf("expected 6 critical sections, got %d stamps", len(critical))
	}
}

func TestTryAcquireLock(t *testing.T) {
	_, r := newRT(1)
	lk := r.NewLock()
	_, err := r.Run("root", func(e *core.Env) {
		if !r.TryAcquireLock(e, lk) {
			t.Error("free lock not acquired")
		}
		if r.TryAcquireLock(e, lk) {
			t.Error("held lock acquired")
		}
		r.ReleaseLock(e, lk)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	_, r := newRT(1)
	lk := r.NewLock()
	_, err := r.Run("root", func(e *core.Env) {
		r.ReleaseLock(e, lk)
	})
	if err == nil {
		t.Fatal("expected panic error")
	}
}

func distRT(n int) (*core.Kernel, *Runtime) {
	k := core.New(core.Config{Topo: topology.Mesh(n), Mem: mem.NewDistributed(), Seed: 7})
	return k, New(k, nil, DefaultOptions())
}

func TestCellLocalAccess(t *testing.T) {
	_, r := distRT(2)
	_, err := r.Run("root", func(e *core.Env) {
		l := r.NewCell(e, 64, []int64{1, 2, 3})
		r.Access(e, l, func(d any) any {
			v := d.([]int64)
			v[0] = 42
			return v
		})
		r.Access(e, l, func(d any) any {
			if d.([]int64)[0] != 42 {
				t.Error("cell write lost")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().DataReqs != 0 {
		t.Errorf("local accesses generated remote requests: %+v", r.Stats())
	}
}

func TestCellRemoteTransfer(t *testing.T) {
	_, r := distRT(4)
	var ownerSeen []int
	var link mem.Link
	_, err := r.Run("root", func(e *core.Env) {
		link = r.NewCell(e, 256, []int64{7})
		g := r.NewGroup()
		spawned := r.SpawnOrRun(e, g, "remote", 0, func(ce *core.Env) {
			r.Access(ce, link, func(d any) any {
				ownerSeen = append(ownerSeen, r.cells.Get(link).Owner())
				v := d.([]int64)
				v[0] = 99
				return v
			})
		})
		r.Join(e, g)
		if !spawned {
			t.Skip("spawn denied; remote path not exercised")
		}
		r.Access(e, link, func(d any) any {
			if d.([]int64)[0] != 99 {
				t.Error("remote write lost")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.DataReqs == 0 {
		t.Errorf("no remote data requests: %+v", st)
	}
	for _, o := range ownerSeen {
		if o == 0 {
			t.Error("cell accessed remotely while still owned by core 0")
		}
	}
}

func TestCellContention(t *testing.T) {
	_, r := distRT(4)
	total := 0
	_, err := r.Run("root", func(e *core.Env) {
		l := r.NewCell(e, 64, int(0))
		g := r.NewGroup()
		for i := 0; i < 8; i++ {
			r.SpawnOrRun(e, g, "inc", 0, func(ce *core.Env) {
				for j := 0; j < 5; j++ {
					r.Access(ce, l, func(d any) any {
						return d.(int) + 1
					})
					ce.ComputeCycles(20)
				}
			})
		}
		r.Join(e, g)
		r.Access(e, l, func(d any) any {
			total = d.(int)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 40 {
		t.Errorf("cell counter = %d, want 40 (lost updates)", total)
	}
}

func TestDeterministicRuntime(t *testing.T) {
	run := func() vtime.Time {
		_, r := newRT(8)
		res, err := r.Run("root", func(e *core.Env) {
			g := r.NewGroup()
			for i := 0; i < 16; i++ {
				i := i
				r.SpawnOrRun(e, g, "c", 8, func(ce *core.Env) {
					ce.ComputeCycles(float64(50 + i*3))
				})
			}
			r.Join(e, g)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalVT
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic runtime: %v vs %v", a, b)
	}
}

func TestParallelismReducesVirtualTime(t *testing.T) {
	workload := func(n int) vtime.Time {
		k := core.New(core.Config{Topo: topology.Mesh(n), Mem: mem.NewShared(), Seed: 7})
		r := New(k, nil, DefaultOptions())
		res, err := r.Run("root", func(e *core.Env) {
			g := r.NewGroup()
			for i := 0; i < 32; i++ {
				r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
					ce.ComputeCycles(2000)
				})
			}
			r.Join(e, g)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalVT
	}
	seq := workload(1)
	par := workload(16)
	if par >= seq {
		t.Errorf("16 cores (%v) not faster than 1 core (%v)", par, seq)
	}
	speedup := float64(seq) / float64(par)
	if speedup < 2 {
		t.Errorf("speedup = %.2f, expected at least 2x on 16 cores", speedup)
	}
}
