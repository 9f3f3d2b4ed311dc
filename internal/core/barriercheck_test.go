package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestBarrierValidationCleanRun: a messaging sharded run with barrier
// validation armed must complete without tripping either invariant, and
// produce the same Result as an unvalidated run.
func TestBarrierValidationCleanRun(t *testing.T) {
	T := vtime.CyclesInt(40)
	block := vtime.CyclesInt(15)
	run := func(validate bool) Result {
		k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: T},
			Seed: 11, Shards: 4, Workers: 2})
		if !k.Sharded() {
			t.Fatal("expected sharded kernel")
		}
		if validate {
			k.EnableBarrierValidation(2*block + T)
		}
		k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
		for c := 0; c < 16; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 25; i++ {
					e.ComputeCycles(15)
					e.Send((c+7)%16, kindOneWay, 16, nil)
				}
			}, nil, 0)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatalf("validate=%v: %v", validate, err)
		}
		if err := k.Validate(); err != nil {
			t.Fatalf("validate=%v: post-run Validate: %v", validate, err)
		}
		return res
	}
	if got, want := run(true), run(false); !reflect.DeepEqual(got, want) {
		t.Errorf("validation perturbed the run:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestBarrierCheckFIFO: the stamp monotonicity and arrival>=stamp checks
// fire on synthesized violations and stay quiet on legal sequences.
func TestBarrierCheckFIFO(t *testing.T) {
	bc := &barrierCheck{fifoLast: make(map[[2]int32]vtime.Time)}
	legal := []network.Message{
		{Src: 0, Dst: 1, Stamp: 10, Arrival: 15},
		{Src: 0, Dst: 1, Stamp: 10, Arrival: 12}, // equal stamp: still FIFO
		{Src: 1, Dst: 0, Stamp: 5, Arrival: 9},   // other direction: independent channel
		{Src: 0, Dst: 1, Stamp: 20, Arrival: 20}, // zero-latency arrival is legal
	}
	for _, m := range legal {
		bc.recordMsg(m)
	}
	if bc.err != nil {
		t.Fatalf("legal sequence flagged: %v", bc.err)
	}
	bc.recordMsg(network.Message{Src: 0, Dst: 1, Stamp: 19, Arrival: 30})
	if bc.err == nil || !strings.Contains(bc.err.Error(), "FIFO") {
		t.Errorf("stamp regression not caught: %v", bc.err)
	}

	bc2 := &barrierCheck{fifoLast: make(map[[2]int32]vtime.Time)}
	bc2.recordMsg(network.Message{Src: 2, Dst: 3, Stamp: 50, Arrival: 40})
	if bc2.err == nil || !strings.Contains(bc2.err.Error(), "before its emission stamp") {
		t.Errorf("arrival-before-stamp not caught: %v", bc2.err)
	}
	// First error sticks: later legal traffic must not clear it.
	bc2.recordMsg(network.Message{Src: 2, Dst: 3, Stamp: 60, Arrival: 70})
	if bc2.err == nil {
		t.Error("recorded error was cleared by later traffic")
	}
}

// TestDriftBoundValue: Diameter × T sequentially, + quantum sharded, Inf
// without a spatial guarantee.
func TestDriftBoundValue(t *testing.T) {
	T := vtime.CyclesInt(40)
	topo := topology.Mesh(16) // diameter 6
	seq := New(Config{Topo: topo, Policy: Spatial{T: T}, Seed: 1})
	want := vtime.Time(topo.Diameter()) * T
	if got := seq.DriftBound(); got != want {
		t.Errorf("sequential DriftBound = %v, want %v", got, want)
	}
	sh := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: T}, Seed: 1, Shards: 4})
	if !sh.Sharded() {
		t.Fatal("expected sharded kernel")
	}
	if got := sh.DriftBound(); got != want+8*T {
		t.Errorf("sharded DriftBound = %v, want %v", got, want+8*T)
	}
	global := New(Config{Topo: topology.Mesh(4), Policy: unboundedPolicy{}, Seed: 1})
	if got := global.DriftBound(); got != vtime.Inf {
		t.Errorf("non-spatial DriftBound = %v, want Inf", got)
	}
}

// unboundedPolicy has no spatial drift guarantee.
type unboundedPolicy struct{}

func (unboundedPolicy) Name() string             { return "unbounded-test" }
func (unboundedPolicy) Horizon(*Core) vtime.Time { return vtime.Inf }

// TestCheckDriftBoundTrips: a hand-built clock spread beyond the bound is
// reported; within the bound (or with all but one core idle) it is not.
func TestCheckDriftBoundTrips(t *testing.T) {
	T := vtime.CyclesInt(10)
	k := New(Config{Topo: topology.Mesh(4), Policy: Spatial{T: T}, Seed: 1})
	bound := k.DriftBound() // diameter 2 -> 20cy
	for _, c := range k.cores {
		c.idle = false
		c.vt = 0
	}
	k.cores[3].vt = bound + 1
	if err := k.CheckDriftBound(0); err == nil {
		t.Error("spread beyond bound not reported")
	}
	if err := k.CheckDriftBound(vtime.CyclesInt(1)); err != nil {
		t.Errorf("spread within bound+slack reported: %v", err)
	}
	// Idle cores are excluded from the spread.
	for i := 0; i < 3; i++ {
		k.cores[i].idle = true
	}
	if err := k.CheckDriftBound(0); err != nil {
		t.Errorf("single busy core reported: %v", err)
	}
}

// TestShardsHonouredOrRefused: the kernel runs exactly the shard count
// the configuration names. A tracer keeps the sharded engine (per-shard
// buffers merge at barriers); Shards: 0 is Shards: 1, fingerprint
// included; nil Policy and Mem stand for their shard-capable defaults. A
// request the engine cannot honour is refused by CheckShards, and New
// panics with the same text.
func TestShardsHonouredOrRefused(t *testing.T) {
	traced := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
		Seed: 1, Shards: 4, Tracer: countingTracer{}})
	if !traced.Sharded() || traced.NumShards() != 4 {
		t.Fatalf("tracer-equipped kernel runs %d shards, want 4 sharded", traced.NumShards())
	}
	fp := func(shards int) uint64 {
		return New(Config{Topo: topology.Mesh(16), Seed: 3, Shards: shards}).fprint
	}
	if fp(0) != fp(1) {
		t.Error("Shards 0 fingerprint differs from Shards 1's")
	}
	if fp(4) == fp(1) {
		t.Error("Shards 4 fingerprint equals Shards 1's")
	}
	if err := (Config{Topo: topology.Mesh(8), Shards: 8}).CheckShards(); err != nil {
		t.Errorf("one shard per core with default policy and memory refused: %v", err)
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		want []string
	}{
		{"policy", Config{Policy: unboundedPolicy{}, Shards: 4}, []string{"shard-local policy", `"unbounded-test"`}},
		{"memory", Config{Mem: unsafeMem{}, Shards: 4}, []string{"shard-safe memory"}},
		{"too many", Config{Shards: 99}, []string{"Shards = 99", "8 cores"}},
		{"negative shards", Config{Shards: -3}, []string{"Shards = -3"}},
		{"negative workers", Config{Workers: -1}, []string{"Workers = -1"}},
	} {
		tc.cfg.Topo = topology.Mesh(8)
		err := tc.cfg.CheckShards()
		if err == nil {
			t.Errorf("%s: CheckShards accepted %+v", tc.name, tc.cfg)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, w)
			}
		}
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); got != err.Error() {
					t.Errorf("%s: New panicked with %q, want %q", tc.name, got, err)
				}
			}()
			New(tc.cfg)
		}()
	}
}

// unsafeMem is a memory system that is not shard-safe, like shared memory
// with a coherence directory.
type unsafeMem struct{ NullMem }

func (unsafeMem) ShardSafe() bool { return false }

// countingTracer is a trivial Tracer.
type countingTracer struct{}

func (countingTracer) Trace(TraceEvent) {}
