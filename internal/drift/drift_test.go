package drift

import (
	"fmt"
	"testing"

	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// runPair runs two 40-block workers on a 2-core machine under the given
// policy and returns the result plus an execution-order drift measurement.
func runPair(t *testing.T, pol core.Policy, blockCycles float64) (core.Result, vtime.Time) {
	t.Helper()
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := core.New(core.Config{Topo: topo, Policy: pol, Seed: 3})
	type rec struct {
		c  int
		vt vtime.Time
	}
	var log []rec
	for c := 0; c < 2; c++ {
		c := c
		k.InjectTask(c, "w", func(e *core.Env) {
			for i := 0; i < 40; i++ {
				e.ComputeCycles(blockCycles)
				log = append(log, rec{c, e.Now()})
			}
		}, nil, 0)
	}
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := map[int]vtime.Time{}
	var maxDrift vtime.Time
	for _, r := range log {
		last[r.c] = r.vt
		if len(last) == 2 {
			d := last[0] - last[1]
			if d < 0 {
				d = -d
			}
			if d > maxDrift {
				maxDrift = d
			}
		}
	}
	return res, maxDrift
}

func TestNames(t *testing.T) {
	cases := map[string]core.Policy{
		"quantum":       GlobalQuantum{Q: vtime.CyclesInt(100)},
		"bounded-slack": BoundedSlack{W: vtime.CyclesInt(100)},
		"lockstep":      Lockstep{},
		"unbounded":     Unbounded{},
		"laxp2p":        LaxP2P{Slack: vtime.CyclesInt(100)},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestQuantumBoundsDrift(t *testing.T) {
	_, drift := runPair(t, GlobalQuantum{Q: vtime.CyclesInt(50)}, 10)
	// Within a quantum window plus one block of overshoot.
	if drift > vtime.CyclesInt(70) {
		t.Errorf("quantum drift = %v", drift)
	}
}

func TestBoundedSlackBoundsDrift(t *testing.T) {
	_, drift := runPair(t, BoundedSlack{W: vtime.CyclesInt(30)}, 10)
	if drift > vtime.CyclesInt(50) {
		t.Errorf("bounded-slack drift = %v", drift)
	}
}

func TestLockstepExactOrder(t *testing.T) {
	res, drift := runPair(t, Lockstep{}, 10)
	// Lockstep: drift bounded by one block.
	if drift > vtime.CyclesInt(10) {
		t.Errorf("lockstep drift = %v", drift)
	}
	// And no out-of-order handling can occur (no messages here, but the
	// step count shows per-block interleaving).
	if res.Steps < 40 {
		t.Errorf("lockstep steps = %d, expected per-block interleaving", res.Steps)
	}
}

func TestUnboundedSerializes(t *testing.T) {
	res, _ := runPair(t, Unbounded{}, 10)
	// Without synchronization each task runs to completion in one step.
	if res.Steps != 2 {
		t.Errorf("unbounded steps = %d, want 2", res.Steps)
	}
	if res.Stalls != 0 {
		t.Errorf("unbounded stalls = %d", res.Stalls)
	}
}

func TestLaxP2PBoundsDriftLoosely(t *testing.T) {
	_, drift := runPair(t, LaxP2P{Slack: vtime.CyclesInt(40)}, 10)
	// With 2 cores the referee is always the other core, so the bound is
	// slack + one block.
	if drift > vtime.CyclesInt(60) {
		t.Errorf("laxp2p drift = %v", drift)
	}
}

func TestPolicyOrderingSpeedAccuracy(t *testing.T) {
	// Tighter schemes must schedule at least as many steps (more
	// synchronization) as looser ones: lockstep ≥ quantum ≥ unbounded.
	lock, _ := runPair(t, Lockstep{}, 10)
	quant, _ := runPair(t, GlobalQuantum{Q: vtime.CyclesInt(100)}, 10)
	unb, _ := runPair(t, Unbounded{}, 10)
	if !(lock.Steps >= quant.Steps && quant.Steps >= unb.Steps) {
		t.Errorf("steps ordering violated: lockstep=%d quantum=%d unbounded=%d",
			lock.Steps, quant.Steps, unb.Steps)
	}
}

func TestSingleCoreUnconstrained(t *testing.T) {
	for _, pol := range []core.Policy{
		GlobalQuantum{Q: vtime.CyclesInt(50)},
		BoundedSlack{W: vtime.CyclesInt(50)},
		Lockstep{},
		LaxP2P{Slack: vtime.CyclesInt(50)},
		Unbounded{},
	} {
		k := core.New(core.Config{Topo: topology.Mesh(1), Policy: pol, Seed: 1})
		k.InjectTask(0, "solo", func(e *core.Env) {
			for i := 0; i < 100; i++ {
				e.ComputeCycles(10)
			}
		}, nil, 0)
		res, err := k.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.FinalVT != vtime.CyclesInt(1010) {
			t.Errorf("%s: FinalVT = %v", pol.Name(), res.FinalVT)
		}
	}
}

func TestLockExemptionRespectedByGlobalSchemes(t *testing.T) {
	for _, pol := range []core.Policy{
		GlobalQuantum{Q: vtime.CyclesInt(20)},
		BoundedSlack{W: vtime.CyclesInt(20)},
		Lockstep{},
		LaxP2P{Slack: vtime.CyclesInt(20)},
	} {
		topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
		k := core.New(core.Config{Topo: topo, Policy: pol, Seed: 1})
		var span vtime.Time
		k.InjectTask(0, "locker", func(e *core.Env) {
			e.AcquireLockExempt()
			s := e.Now()
			e.ComputeCycles(1000)
			span = e.Now() - s
			e.ReleaseLockExempt()
		}, nil, 0)
		k.InjectTask(1, "other", func(e *core.Env) {
			for i := 0; i < 50; i++ {
				e.ComputeCycles(1)
			}
		}, nil, 0)
		if _, err := k.Run(); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if span != vtime.CyclesInt(1000) {
			t.Errorf("%s: locked span = %v", pol.Name(), span)
		}
	}
}

// TestProbeRecordsDrift: with a Probe histogram attached, the schemes
// record the measured core lead at every horizon evaluation, and the
// maximum stays within the scheme's bound (plus one block of overshoot).
func TestProbeRecordsDrift(t *testing.T) {
	W := vtime.CyclesInt(30)
	block := vtime.CyclesInt(10)
	cases := []struct {
		name  string
		mk    func(*metrics.Histogram) core.Policy
		bound vtime.Time
	}{
		{"quantum", func(h *metrics.Histogram) core.Policy {
			return GlobalQuantum{Q: W, Probe: h}
		}, W + block},
		{"bounded-slack", func(h *metrics.Histogram) core.Policy {
			return BoundedSlack{W: W, Probe: h}
		}, W + block},
		{"laxp2p", func(h *metrics.Histogram) core.Policy {
			return LaxP2P{Slack: W, Probe: h}
		}, W + block},
	}
	for _, tc := range cases {
		reg := metrics.New()
		h := reg.Histogram("drift.probe", metrics.UnitTime, metrics.DefaultTimeBounds())
		runPair(t, tc.mk(h), 10)
		snap := reg.Snapshot()
		hs := snap.Histograms[0]
		if hs.Count == 0 {
			t.Errorf("%s: probe recorded nothing", tc.name)
			continue
		}
		if hs.Min < 0 {
			t.Errorf("%s: negative drift %d recorded (clamp failed)", tc.name, hs.Min)
		}
		if max := vtime.Time(hs.Max); max > tc.bound {
			t.Errorf("%s: probed drift %v exceeds bound %v", tc.name, max, tc.bound)
		}
	}
	// Nil probe: no panic, same results.
	runPair(t, BoundedSlack{W: W}, 10)
}

// TestPinnedResults pins one small run per policy: heterogeneous workers on
// four of a 3×3 mesh's cores, each blocking now and then on an echo off the
// contended center core, five cores idle throughout. The kernel maintains no effective times under these policies
// (none relays through idle cores); the numbers were recorded at commit
// 423337b, where it still did, so dropping that bookkeeping is shown not
// to move their results.
func TestPinnedResults(t *testing.T) {
	const kindNote network.Kind = 200
	for _, tc := range []struct {
		pol  core.Policy
		want string
	}{
		{GlobalQuantum{Q: vtime.CyclesInt(50)},
			"{FinalVT:849cy Steps:48 Messages:20 Hops:40 Bytes:10240 OutOfOrder:3 Handled:20 Stalls:44 Instructions:0 AvgRunnable:2.1458333333333335 MaxRunnable:4 Shards:1 PerShard:[{Cores:9 Steps:48 Util:1}]}"},
		{BoundedSlack{W: vtime.CyclesInt(30)},
			"{FinalVT:849cy Steps:64 Messages:20 Hops:40 Bytes:10240 OutOfOrder:0 Handled:20 Stalls:60 Instructions:0 AvgRunnable:2.734375 MaxRunnable:4 Shards:1 PerShard:[{Cores:9 Steps:64 Util:1}]}"},
		{LaxP2P{Slack: vtime.CyclesInt(40)},
			"{FinalVT:849cy Steps:5 Messages:20 Hops:40 Bytes:10240 OutOfOrder:11 Handled:20 Stalls:1 Instructions:0 AvgRunnable:2.8 MaxRunnable:4 Shards:1 PerShard:[{Cores:9 Steps:5 Util:1}]}"},
		{Lockstep{},
			"{FinalVT:849cy Steps:105 Messages:20 Hops:40 Bytes:10240 OutOfOrder:0 Handled:20 Stalls:101 Instructions:0 AvgRunnable:1.1333333333333333 MaxRunnable:4 Shards:1 PerShard:[{Cores:9 Steps:105 Util:1}]}"},
		{Unbounded{},
			"{FinalVT:849cy Steps:4 Messages:20 Hops:40 Bytes:10240 OutOfOrder:9 Handled:20 Stalls:0 Instructions:0 AvgRunnable:2.5 MaxRunnable:4 Shards:1 PerShard:[{Cores:9 Steps:4 Util:1}]}"},
	} {
		k := core.New(core.Config{Topo: topology.Mesh(9), Policy: tc.pol, Seed: 3})
		k.Handle(kindNote, func(k *core.Kernel, msg network.Message) {
			k.Unblock(msg.Payload.(*core.Task), msg.Arrival)
		})
		for i, c := range []int{0, 2, 6, 8} {
			cost := float64(10 + 7*i)
			k.InjectTask(c, "w", func(e *core.Env) {
				for r := 0; r < 25; r++ {
					e.ComputeCycles(cost)
					if r%5 == 4 {
						e.Send(4, kindNote, 512, e.Task())
						e.Block()
					}
				}
			}, nil, vtime.CyclesInt(int64(3*i)))
		}
		res, err := k.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.pol.Name(), err)
		}
		if got := fmt.Sprintf("%+v", res); got != tc.want {
			t.Errorf("%s: Result moved:\n  got  %s\n  want %s", tc.pol.Name(), got, tc.want)
		}
	}
}
