package core

import (
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

// TestDemotionNotice: a tracer never demotes the sharded engine
// (per-shard buffers merge at barriers), while construction-time demotion
// by an unsafe component is explicit.
func TestDemotionNotice(t *testing.T) {
	traced := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
		Seed: 1, Shards: 4, Tracer: countingTracer{}})
	if !traced.Sharded() {
		t.Fatal("tracer-equipped kernel came up demoted")
	}
	if n := traced.DemotionNotice(); n != "" {
		t.Errorf("sharded kernel has notice %q", n)
	}

	// A policy without shard-local decisions forces the sequential engine.
	dem := New(Config{Topo: topology.Mesh(16), Policy: unboundedPolicy{},
		Seed: 1, Shards: 4})
	if dem.Sharded() {
		t.Fatal("non-shard-local policy came up sharded")
	}
	if n := dem.DemotionNotice(); !strings.Contains(n, "policy") {
		t.Errorf("notice %q does not name the policy", n)
	}
}

// TestDemotedRunMatchesSequential: a sharded configuration demoted at
// construction (here: by a policy without shard-local decisions) must
// produce exactly the Result a natively sequential kernel does.
func TestDemotedRunMatchesSequential(t *testing.T) {
	build := func(shards int) *Kernel {
		k := New(Config{Topo: topology.Mesh(16), Policy: unboundedPolicy{},
			Seed: 23, Shards: shards})
		if k.Sharded() {
			t.Fatal("non-shard-local policy came up sharded")
		}
		k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
		for c := 0; c < 16; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 20; i++ {
					e.ComputeCycles(12)
					e.Send((c+5)%16, kindOneWay, 16, nil)
				}
			}, nil, 0)
		}
		return k
	}
	demoted := build(4)
	if demoted.DemotionNotice() == "" {
		t.Fatal("expected demotion")
	}
	plain := build(1)
	got, err := demoted.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("demoted result diverged:\n  got  %+v\n  want %+v", got, want)
	}
}

// countingTracer is a trivial Tracer for demotion tests.
type countingTracer struct{}

func (countingTracer) Trace(TraceEvent) {}
