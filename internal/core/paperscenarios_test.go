package core

// Executable versions of the paper's worked examples: the virtual-time
// figures of §II are reproduced as concrete kernel scenarios, so the
// mechanisms can be checked against the published numbers.

import (
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestFig1SpatialWakeups reproduces Fig. 1: a chain of three cores with
// T=20; the lagging left core gradually wakes the two stalled cores at its
// right as its virtual-time updates propagate.
func TestFig1SpatialWakeups(t *testing.T) {
	T := vtime.CyclesInt(20)
	topo := topology.Mesh2D(3, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: 1})
	type rec struct {
		core int
		vt   vtime.Time
	}
	var log []rec
	work := func(c int, blocks int, cost float64) func(*Env) {
		return func(e *Env) {
			for i := 0; i < blocks; i++ {
				e.ComputeCycles(cost)
				log = append(log, rec{c, e.Now()})
			}
		}
	}
	// The left core is slow (many small blocks), the middle and right ones
	// fast (they immediately run to their drift bound and stall).
	k.InjectTask(0, "left", work(0, 40, 5), nil, 0)
	k.InjectTask(1, "mid", work(1, 40, 5), nil, 0)
	k.InjectTask(2, "right", work(2, 40, 5), nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Check the Fig. 1 property: the middle core never leads core 0 by
	// more than T (+ one 5cy block of overshoot), and the right core never
	// leads the middle one by more than the same bound.
	last := map[int]vtime.Time{}
	bound := T + vtime.CyclesInt(6)
	for _, r := range log {
		last[r.core] = r.vt
		if l0, ok := last[0]; ok {
			if l1 := last[1]; l1 > l0+bound {
				t.Fatalf("mid core led by %v (> T)", l1-l0)
			}
		}
		if l1, ok := last[1]; ok {
			if l2 := last[2]; l2 > l1+bound {
				t.Fatalf("right core led by %v (> T)", l2-l1)
			}
		}
	}
}

// TestFig2NonConnectedSets reproduces Fig. 2: two active groups separated
// by idle cores. Without shadow virtual times their drift would be
// unbounded; with them, the global diameter×T bound holds through the idle
// middle.
func TestFig2NonConnectedSets(t *testing.T) {
	T := vtime.CyclesInt(20)
	topo := topology.Mesh2D(7, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: 1})
	type rec struct {
		core int
		vt   vtime.Time
	}
	var log []rec
	worker := func(c int) func(*Env) {
		return func(e *Env) {
			for i := 0; i < 80; i++ {
				e.ComputeCycles(10)
				log = append(log, rec{c, e.Now()})
			}
		}
	}
	// Left set {0,1}, right set {5,6}; cores 2..4 idle throughout.
	for _, c := range []int{0, 1, 5, 6} {
		k.InjectTask(c, "w", worker(c), nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	diam := vtime.Time(topo.Diameter())
	limit := diam*T + vtime.CyclesInt(12)
	last := map[int]vtime.Time{}
	for _, r := range log {
		last[r.core] = r.vt
		if len(last) == 4 {
			lo, hi := vtime.Inf, vtime.Time(0)
			for _, v := range last {
				lo, hi = vtime.Min(lo, v), vtime.Max(hi, v)
			}
			if hi-lo > limit {
				t.Fatalf("non-connected sets drifted %v (> diam*T = %v)", hi-lo, diam*T)
			}
		}
	}
}

// TestFig3SpawnBirthDrift reproduces Fig. 3: a core spawns a task at
// virtual time 20 into an otherwise idle network; without birth tracking
// it could run to 90+ before the child exists. The birth entry caps the
// spawner's horizon at birth+T until the task arrives.
func TestFig3SpawnBirthDrift(t *testing.T) {
	T := vtime.CyclesInt(20)
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: 1})
	var horizonDuring, horizonAfter vtime.Time
	k.InjectTask(0, "spawner", func(e *Env) {
		e.ComputeCycles(10) // reach vt = 20 (10 start + 10 compute)
		birth := e.Now()
		child := k.NewTask(0, "child", func(*Env) {}, nil)
		k.RegisterBirth(k.Core(0), child, birth)
		horizonDuring = k.Policy().Horizon(k.Core(0))
		if horizonDuring != birth+T {
			t.Errorf("horizon with spawn in flight = %v, want birth+T = %v", horizonDuring, birth+T)
		}
		k.PlaceTask(child, 1, birth+vtime.CyclesInt(3), k.Core(0))
		horizonAfter = k.Policy().Horizon(k.Core(0))
		if horizonAfter <= horizonDuring {
			t.Errorf("arrival did not relax the horizon: %v -> %v", horizonDuring, horizonAfter)
		}
		e.ComputeCycles(70) // would breach 90 with the Fig. 3 problem
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFig4LockDeadlockAvoided reproduces Fig. 4: a core acquires a lock at
// vt 35 and would stall at 45 (T=20, neighbor at 20); the neighbor then
// requests the lock at 22 and blocks. Without the lock-holder exemption
// the holder could never reach its release point.
func TestFig4LockDeadlockAvoided(t *testing.T) {
	T := vtime.CyclesInt(20)
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: 1})

	const kindLockReq network.Kind = 900
	const kindLockAck network.Kind = 901
	var holder, waiter *Task
	lockFree := false
	var pendingReq *network.Message
	k.Handle(kindLockReq, func(k *Kernel, msg network.Message) {
		if lockFree {
			k.SendAt(msg.Dst, msg.Src, kindLockAck, 8, msg.Payload, msg.Arrival)
			return
		}
		m := msg
		pendingReq = &m // deferred until release
	})
	k.Handle(kindLockAck, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})

	var releaseVT, ackVT vtime.Time
	holder = k.InjectTask(1, "holder", func(e *Env) {
		e.ComputeCycles(25) // acquire around vt 35
		e.AcquireLockExempt()
		// Long critical section: with T=20 and the neighbor at ~20 this
		// would stall without the exemption.
		e.ComputeCycles(200)
		releaseVT = e.Now()
		lockFree = true
		e.ReleaseLockExempt()
		if pendingReq != nil {
			k.SendAt(1, pendingReq.Src, kindLockAck, 8, pendingReq.Payload, releaseVT)
		}
	}, nil, 0)
	waiter = k.InjectTask(0, "waiter", func(e *Env) {
		e.ComputeCycles(12) // request around vt 22
		e.Send(1, kindLockReq, 8, e.Task())
		ackVT = e.Block()
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if releaseVT < vtime.CyclesInt(235) {
		t.Errorf("holder released at %v; exemption failed", releaseVT)
	}
	if ackVT < releaseVT {
		t.Errorf("waiter acquired at %v, before release at %v", ackVT, releaseVT)
	}
	_ = holder
	_ = waiter
}
