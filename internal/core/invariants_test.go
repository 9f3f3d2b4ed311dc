package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestAccessors covers the public state getters against a live kernel.
func TestAccessors(t *testing.T) {
	topo := topology.Mesh(4)
	k := New(Config{Topo: topo, Seed: 1})
	if k.NumCores() != 4 || k.Topology() != topo {
		t.Error("kernel accessors")
	}
	if k.Network() == nil {
		t.Error("nil accessors")
	}
	c := k.Core(2)
	if c.Kernel() != k || c.ID != 2 {
		t.Error("core accessors")
	}
	if !c.Idle() || c.LockDepth() != 0 || c.QueueLength() != 0 {
		t.Error("fresh core state")
	}
	if len(c.Neighbors()) != topo.Degree(2) {
		t.Error("neighbors")
	}
	if c.L1() == nil || c.L2() == nil {
		t.Error("cache accessors")
	}
	if c.NextEventTime() != vtime.Inf {
		t.Error("idle core next event should be Inf")
	}
	if k.GlobalMinTime() != vtime.Inf {
		t.Error("empty kernel global min should be Inf")
	}
	if k.MaxTime() != 0 {
		t.Error("fresh max time")
	}
	k.InjectTask(2, "w", func(e *Env) {
		if e.Kernel() != k || e.CoreID() != 2 || e.Task() == nil {
			t.Error("env accessors")
		}
		if c.Idle() || c.Eff() != c.VT() {
			t.Error("busy core must advertise its own clock")
		}
		e.ComputeCycles(10)
	}, nil, vtime.CyclesInt(5))
	if got := c.NextEventTime(); got != vtime.CyclesInt(5) {
		t.Errorf("pending next event = %v", got)
	}
	if got := k.GlobalMinTime(); got != vtime.CyclesInt(5) {
		t.Errorf("global min = %v", got)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.MaxTime() == 0 {
		t.Error("max time not updated")
	}
}

// TestDriftBoundRandomTopologies checks the paper's global guarantee on
// random connected networks: at every observation point the spread between
// any two active cores' clocks stays within diameter × T plus one block.
func TestDriftBoundRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		n := 3 + rng.Intn(10)
		topo := topology.New(n, "rand")
		for v := 1; v < n; v++ {
			topo.AddLink(v, rng.Intn(v), topology.DefaultLatency, topology.DefaultBandwidth)
		}
		for e := 0; e < n/2; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				topo.AddLink(a, b, topology.DefaultLatency, topology.DefaultBandwidth)
			}
		}
		T := vtime.CyclesInt(40)
		block := vtime.CyclesInt(15)
		k := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: int64(iter)})
		type rec struct {
			core int
			vt   vtime.Time
		}
		var log []rec
		for c := 0; c < n; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 60; i++ {
					e.ComputeCycles(15)
					log = append(log, rec{c, e.Now()})
				}
			}, nil, 0)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		limit := vtime.Time(topo.Diameter())*T + 2*block + T
		last := make(map[int]vtime.Time)
		for _, r := range log {
			last[r.core] = r.vt
			if len(last) < n {
				continue
			}
			lo, hi := vtime.Inf, vtime.Time(0)
			for _, v := range last {
				lo, hi = vtime.Min(lo, v), vtime.Max(hi, v)
			}
			if hi-lo > limit {
				t.Fatalf("iter %d: drift %v exceeds bound %v (diam %d)",
					iter, hi-lo, limit, topo.Diameter())
			}
		}
	}
}

// TestParallelDriftBound checks the spatial guarantee under the sharded
// engine: with cross-shard proxies frozen during a round, a core may
// additionally overrun by at most the round quantum, so the global spread
// stays within the sequential bound plus the quantum.
func TestParallelDriftBound(t *testing.T) {
	T := vtime.CyclesInt(40)
	block := vtime.CyclesInt(15)
	quantum := 8 * T // kernel default for Spatial{T}
	for _, workers := range []int{1, 2, 8} {
		topo := topology.Mesh(16)
		k := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: 7, Shards: 4, Workers: workers})
		if !k.Sharded() || k.NumShards() != 4 {
			t.Fatalf("workers=%d: expected 4 shards, got sharded=%v shards=%d",
				workers, k.Sharded(), k.NumShards())
		}
		type rec struct {
			core int
			vt   vtime.Time
		}
		var mu sync.Mutex
		var log []rec
		for c := 0; c < 16; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 60; i++ {
					e.ComputeCycles(15)
					mu.Lock()
					log = append(log, rec{c, e.Now()})
					mu.Unlock()
				}
			}, nil, 0)
		}
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		limit := vtime.Time(topo.Diameter())*T + 2*block + T + quantum
		// The concurrent log has no global order; check each core's final
		// clock against every other core's — the end-state spread obeys the
		// same bound.
		last := make(map[int]vtime.Time)
		for _, r := range log {
			if r.vt > last[r.core] {
				last[r.core] = r.vt
			}
		}
		lo, hi := vtime.Inf, vtime.Time(0)
		for _, v := range last {
			lo, hi = vtime.Min(lo, v), vtime.Max(hi, v)
		}
		if hi-lo > limit {
			t.Fatalf("workers=%d: final drift %v exceeds bound %v", workers, hi-lo, limit)
		}
	}
}

// TestShardedDeterministicAcrossWorkers: for a fixed seed and shard count,
// the Result must be byte-identical no matter how many host threads drive
// the shards.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Result {
		k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
			Seed: 11, Shards: 4, Workers: workers})
		k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
		for c := 0; c < 16; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 25; i++ {
					var counts [8]int64
					counts[7] = 10 // exercise the per-core predictor stream
					e.Compute(counts)
					// Message a distant core: crosses shard boundaries.
					e.Send((c+7)%16, kindOneWay, 16, nil)
				}
			}, nil, 0)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: result diverged:\n  got  %+v\n  want %+v", w, got, base)
		}
	}
}

// TestDeterministicAcrossSeedsProperty: the same seed yields the same
// final virtual time; different seeds are allowed to differ but must still
// complete.
func TestDeterministicAcrossSeedsProperty(t *testing.T) {
	run := func(seed int64) vtime.Time {
		k := New(Config{Topo: topology.Mesh(4), Policy: Spatial{T: DefaultT}, Seed: seed})
		for c := 0; c < 4; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 10; i++ {
					var counts [8]int64
					counts[7] = 20 // conditional branches: predictor uses seed
					e.Compute(counts)
					e.ComputeCycles(float64(5 + c))
				}
			}, nil, 0)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalVT
	}
	f := func(seed int16) bool {
		return run(int64(seed)) == run(int64(seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestBlockedOnlyCoreActsIdle: a core whose tasks are all blocked
// advertises a shadow time so its neighbors are not stalled forever —
// the deadlock-freedom argument of §II.B requires it.
func TestBlockedOnlyCoreActsIdle(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := New(Config{Topo: topo, Policy: Spatial{T: vtime.CyclesInt(50)}, Seed: 1})
	k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	var blocker *Task
	blocker = k.InjectTask(0, "blocker", func(e *Env) {
		e.Block() // parked until the worker finishes
	}, nil, 0)
	var workerEnd vtime.Time
	k.InjectTask(1, "worker", func(e *Env) {
		// Must be able to run far beyond core 0's frozen clock + T.
		e.ComputeCycles(100_000)
		workerEnd = e.Now()
		e.Send(0, kindOneWay, 8, blocker)
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if workerEnd < vtime.CyclesInt(100_000) {
		t.Errorf("worker stalled behind a blocked core: %v", workerEnd)
	}
}
