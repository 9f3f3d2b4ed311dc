package cyclelevel

import (
	"testing"

	"simany/internal/core"
	"simany/internal/drift"
	"simany/internal/mem"
	"simany/internal/metrics"
	"simany/internal/rt"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func TestMemRetainsAcrossScopes(t *testing.T) {
	// Unlike SiMany's pessimistic L1, the cycle-level D-cache keeps lines
	// across function boundaries.
	topo := topology.Mesh(1)
	m := NewMem(1)
	k := core.New(core.Config{Topo: topo, Mem: m, Seed: 1})
	var first, second vtime.Time
	k.InjectTask(0, "r", func(e *core.Env) {
		base := memTime(k, 0)
		e.Read(0, 8, 8)
		first = memTime(k, 0) - base
		e.EnterScope()
		e.LeaveScope() // would flush SiMany's L1; must not affect this one
		base = memTime(k, 0)
		e.Read(0, 8, 8)
		second = memTime(k, 0) - base
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Errorf("warm access (%v) not cheaper than cold (%v)", second, first)
	}
	// Warm: pure hits.
	if second != vtime.CyclesInt(8) {
		t.Errorf("warm cost = %v, want 8 hits at 1cy", second)
	}
}

func TestMemCoherenceInvalidation(t *testing.T) {
	topo := topology.Mesh(4)
	m := NewMem(4)
	k := core.New(core.Config{Topo: topo, Mem: m, Policy: drift.Lockstep{}, Seed: 1})
	var writerCost vtime.Time
	k.InjectTask(0, "reader", func(e *core.Env) {
		e.Read(0, 4, 8)
	}, nil, 0)
	k.InjectTask(1, "writer", func(e *core.Env) {
		e.ComputeCycles(500) // run after the reader in virtual time
		base := memTime(k, 1)
		e.Write(0, 4, 8)
		writerCost = memTime(k, 1) - base
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Writer pays: 4 hits-worth of L1 time + bank miss + 1 invalidation.
	min := 4*m.HitLat + m.BankLat + m.InvLat
	if writerCost < min {
		t.Errorf("writer cost %v, want >= %v", writerCost, min)
	}
	if inv := k.Metrics().Counter("cache.dir.invalidations", metrics.UnitCount).Value(); inv == 0 {
		t.Error("no invalidations recorded")
	}
}

func TestInvalidatedLineMissesAgain(t *testing.T) {
	topo := topology.Mesh(2)
	m := NewMem(2)
	k := core.New(core.Config{Topo: topo, Mem: m, Policy: drift.Lockstep{}, Seed: 1})
	var recost vtime.Time
	k.InjectTask(0, "reader", func(e *core.Env) {
		e.Read(0, 4, 8) // install
		e.ComputeCycles(1000)
		base := memTime(k, 0)
		e.Read(0, 4, 8) // must miss: writer invalidated it meanwhile
		recost = memTime(k, 0) - base
	}, nil, 0)
	k.InjectTask(1, "writer", func(e *core.Env) {
		e.ComputeCycles(300)
		e.Write(0, 4, 8)
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recost < 4*m.HitLat+m.BankLat {
		t.Errorf("re-read cost %v does not include a miss", recost)
	}
}

func TestNewConfigRuns(t *testing.T) {
	topo := topology.Mesh(4)
	cfg := NewConfig(topo, nil, 11)
	k := core.New(cfg)
	r := rt.New(k, mem.NewAllocator(), rt.DefaultOptions())
	sum := 0
	res, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 8; i++ {
			r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
				ce.ComputeCycles(200)
				ce.Read(uint64(1000+ce.CoreID()*64), 8, 8)
				sum++
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 8 {
		t.Errorf("ran %d children", sum)
	}
	if res.FinalVT <= 0 {
		t.Error("no virtual time elapsed")
	}
	if k.Policy().Name() != "lockstep" {
		t.Errorf("policy = %s", k.Policy().Name())
	}
}

func TestLockstepOrderedHandling(t *testing.T) {
	// The cycle-level policy orders execution at annotation-block
	// granularity, so its out-of-order message fraction must be far below
	// the loosely-synchronized SiMany run of the same program.
	workload := func(cfg core.Config) core.Result {
		k := core.New(cfg)
		r := rt.New(k, mem.NewAllocator(), rt.DefaultOptions())
		res, err := r.Run("root", func(e *core.Env) {
			g := r.NewGroup()
			for i := 0; i < 12; i++ {
				r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
					ce.ComputeCycles(100)
					g2 := r.NewGroup()
					for j := 0; j < 2; j++ {
						r.SpawnOrRun(ce, g2, "gc", 0, func(ge *core.Env) {
							ge.ComputeCycles(50)
						})
					}
					r.Join(ce, g2)
				})
			}
			r.Join(e, g)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cl := workload(NewConfig(topology.Mesh(4), nil, 5))
	sp := workload(core.Config{
		Topo:   topology.Mesh(4),
		Policy: core.Spatial{T: vtime.CyclesInt(1000)},
		Mem:    mem.NewShared(),
		Seed:   5,
	})
	fracCL := float64(cl.OutOfOrder) / float64(cl.Handled+1)
	fracSP := float64(sp.OutOfOrder) / float64(sp.Handled+1)
	if fracCL > 0.15 {
		t.Errorf("lockstep out-of-order fraction %.3f unreasonably high", fracCL)
	}
	if fracSP > 0 && fracCL >= fracSP {
		t.Errorf("lockstep OOO (%.3f) not below loose-sync OOO (%.3f)", fracCL, fracSP)
	}
}

func TestPolymorphicL1FixedSpeed(t *testing.T) {
	// The cycle-level memory does not scale L1 latency with core speed.
	topo := topology.Mesh(2)
	m := NewMem(2)
	k := core.New(core.Config{Topo: topo, Mem: m, Speeds: []float64{0.5, 1}, Seed: 1})
	var cost vtime.Time
	k.InjectTask(0, "slow", func(e *core.Env) {
		e.Read(0, 8, 8)
		base := memTime(k, 0)
		e.Read(0, 8, 8) // warm: pure L1 hits
		cost = memTime(k, 0) - base
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cost != vtime.CyclesInt(8) {
		t.Errorf("warm L1 on 0.5x core = %v, want 8cy (unscaled)", cost)
	}
}

// memTime returns core i's core.mem entry: the virtual time it spent in
// memory accesses.
func memTime(k *core.Kernel, i int) vtime.Time {
	return vtime.Time(k.Metrics().Vector("core.mem", metrics.UnitTime, k.NumCores()).At(i))
}
