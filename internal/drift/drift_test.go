package drift

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
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

const (
	kindSoupEcho network.Kind = 210 + iota
	kindSoupWake
	kindSoupSpawn
)

type soupSpawn struct {
	task  *core.Task
	birth *core.Core
}

// soup injects a seeded random task soup: compute bursts, request/reply
// blocks on an echo from a random core, lock-exempt sections, children
// spawned elsewhere under a birth entry, and cooperative yields. Every
// decision draws from RNGs seeded by (seed, task), never from host state.
func soup(k *core.Kernel, seed int64, tasks int) {
	n := k.NumCores()
	k.Handle(kindSoupEcho, func(k *core.Kernel, msg network.Message) {
		req := msg.Payload.(*core.Task)
		k.SendAt(msg.Dst, req.Core().ID, kindSoupWake, 8, req, msg.Arrival+vtime.CyclesInt(3))
	})
	k.Handle(kindSoupWake, func(k *core.Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*core.Task), msg.Arrival)
	})
	k.Handle(kindSoupSpawn, func(k *core.Kernel, msg network.Message) {
		sp := msg.Payload.(soupSpawn)
		k.PlaceTask(sp.task, msg.Dst, msg.Arrival, sp.birth)
	})
	var body func(depth int, taskSeed int64) func(*core.Env)
	body = func(depth int, taskSeed int64) func(*core.Env) {
		return func(e *core.Env) {
			rng := rand.New(rand.NewSource(taskSeed))
			rounds := 2 + rng.Intn(4)
			for i := 0; i < rounds; i++ {
				e.ComputeCycles(float64(1 + rng.Intn(220)))
				switch rng.Intn(5) {
				case 0:
					e.Send(rng.Intn(n), kindSoupEcho, 16, e.Task())
					e.Block()
				case 1:
					e.AcquireLockExempt()
					e.ComputeCycles(float64(1 + rng.Intn(150)))
					e.ReleaseLockExempt()
				case 2:
					if depth < 2 {
						me := k.Core(e.CoreID())
						child := k.NewTask(me.ID, "child", body(depth+1, taskSeed*31+int64(i)+7), nil)
						k.RegisterBirth(me, child, e.Now())
						e.Send(rng.Intn(n), kindSoupSpawn, 24, soupSpawn{task: child, birth: me})
					}
				case 3:
					e.Yield()
				default:
					e.ComputeCycles(float64(1 + rng.Intn(60)))
				}
			}
		}
	}
	root := rand.New(rand.NewSource(seed))
	for i := 0; i < tasks; i++ {
		at := vtime.CyclesInt(int64(root.Intn(400)))
		k.InjectTask(root.Intn(n), "root", body(0, seed*97+int64(i)), nil, at)
	}
}

// traceHash folds every field of every trace event, in delivery order,
// into one FNV-1a hash.
type traceHash struct {
	events int
	h      hash.Hash64
}

func (t *traceHash) Trace(ev core.TraceEvent) {
	var buf [41]byte
	binary.LittleEndian.PutUint64(buf[0:], ev.Seq)
	buf[8] = byte(ev.Kind)
	binary.LittleEndian.PutUint64(buf[9:], uint64(ev.VT))
	binary.LittleEndian.PutUint64(buf[17:], uint64(ev.Core))
	binary.LittleEndian.PutUint64(buf[25:], ev.TaskID)
	binary.LittleEndian.PutUint64(buf[33:], uint64(ev.Aux))
	t.h.Write(buf[:])
	t.h.Write([]byte(ev.Task))
	t.events++
}

// soupPin is what one soup run must reproduce: the trace stream (event
// count and hash), the Result, and the drift probe's histogram ("-" for
// the schemes without a probe).
type soupPin struct{ trace, result, probe string }

// TestPinnedSoup pins each drift scheme on a randomized soup on a 5×5
// mesh, dense (more tasks than cores) and sparse (three tasks), with a
// Probe attached where the scheme has one. The probe counts horizon
// evaluations, so its count pins how often the scheduler asks each stalled
// core; LaxP2P's referee draws come from the per-core RNGs the trace
// stream reflects. The values were recorded while these schemes still
// scheduled through a linear scan over every core, and hold unchanged on
// the indexed queues.
func TestPinnedSoup(t *testing.T) {
	pins := map[string]soupPin{
		"quantum/dense": {"989 events 8167e4f3467c794e",
			"{FinalVT:4900.750cy Steps:511 Messages:167 Hops:513 Bytes:2568 OutOfOrder:4 Handled:167 Stalls:427 Instructions:0 AvgRunnable:4.500978473581213 MaxRunnable:20 Shards:1 PerShard:[{Cores:25 Steps:511 Util:1}]}",
			"count 8233 sum 514167750 min 0 max 404000"},
		"quantum/sparse": {"79 events dfd8ad8eeea6ec03",
			"{FinalVT:1263cy Steps:34 Messages:16 Hops:41 Bytes:240 OutOfOrder:0 Handled:16 Stalls:27 Instructions:0 AvgRunnable:1.7352941176470589 MaxRunnable:3 Shards:1 PerShard:[{Cores:25 Steps:34 Util:1}]}",
			"count 155 sum 4609750 min 0 max 242750"},
		"bounded-slack/dense": {"966 events 31ae00c0cb4c5955",
			"{FinalVT:4900.750cy Steps:488 Messages:167 Hops:513 Bytes:2568 OutOfOrder:3 Handled:167 Stalls:404 Instructions:0 AvgRunnable:4.954918032786885 MaxRunnable:20 Shards:1 PerShard:[{Cores:25 Steps:488 Util:1}]}",
			"count 7840 sum 497557750 min 0 max 404000"},
		"bounded-slack/sparse": {"81 events f12624e305359bd7",
			"{FinalVT:1263cy Steps:36 Messages:16 Hops:41 Bytes:240 OutOfOrder:0 Handled:16 Stalls:29 Instructions:0 AvgRunnable:1.9444444444444444 MaxRunnable:4 Shards:1 PerShard:[{Cores:25 Steps:36 Util:1}]}",
			"count 162 sum 4182000 min 0 max 183000"},
		"laxp2p/dense": {"711 events 6a323ca30b6180ea",
			"{FinalVT:5405.750cy Steps:233 Messages:167 Hops:513 Bytes:2568 OutOfOrder:6 Handled:167 Stalls:149 Instructions:0 AvgRunnable:12.098712446351932 MaxRunnable:20 Shards:1 PerShard:[{Cores:25 Steps:233 Util:1}]}",
			"count 2063 sum 122285750 min 0 max 666500"},
		"laxp2p/sparse": {"58 events d778c5ce19249df9",
			"{FinalVT:1263cy Steps:13 Messages:16 Hops:41 Bytes:240 OutOfOrder:0 Handled:16 Stalls:6 Instructions:0 AvgRunnable:2.6923076923076925 MaxRunnable:5 Shards:1 PerShard:[{Cores:25 Steps:13 Util:1}]}",
			"count 2 sum 124500 min 0 max 124500"},
		"lockstep/dense": {"1066 events e18430df953a9c92",
			"{FinalVT:4900.750cy Steps:588 Messages:167 Hops:513 Bytes:2568 OutOfOrder:2 Handled:167 Stalls:504 Instructions:0 AvgRunnable:1.7057823129251701 MaxRunnable:20 Shards:1 PerShard:[{Cores:25 Steps:588 Util:1}]}",
			"-"},
		"lockstep/sparse": {"79 events 5a6ae05abbef12d2",
			"{FinalVT:1263cy Steps:34 Messages:16 Hops:41 Bytes:240 OutOfOrder:0 Handled:16 Stalls:27 Instructions:0 AvgRunnable:1.4411764705882353 MaxRunnable:3 Shards:1 PerShard:[{Cores:25 Steps:34 Util:1}]}",
			"-"},
		"unbounded/dense": {"615 events 0b462cdadaef9364",
			"{FinalVT:5401.500cy Steps:137 Messages:167 Hops:513 Bytes:2568 OutOfOrder:9 Handled:167 Stalls:53 Instructions:0 AvgRunnable:13.620437956204379 MaxRunnable:21 Shards:1 PerShard:[{Cores:25 Steps:137 Util:1}]}",
			"-"},
		"unbounded/sparse": {"57 events c95bb795aa633120",
			"{FinalVT:1263cy Steps:12 Messages:16 Hops:41 Bytes:240 OutOfOrder:0 Handled:16 Stalls:5 Instructions:0 AvgRunnable:2.4166666666666665 MaxRunnable:5 Shards:1 PerShard:[{Cores:25 Steps:12 Util:1}]}",
			"-"},
	}
	schemes := []struct {
		name string
		mk   func(*metrics.Histogram) core.Policy
	}{
		{"quantum", func(h *metrics.Histogram) core.Policy { return GlobalQuantum{Q: vtime.CyclesInt(50), Probe: h} }},
		{"bounded-slack", func(h *metrics.Histogram) core.Policy { return BoundedSlack{W: vtime.CyclesInt(30), Probe: h} }},
		{"laxp2p", func(h *metrics.Histogram) core.Policy { return LaxP2P{Slack: vtime.CyclesInt(40), Probe: h} }},
		{"lockstep", func(*metrics.Histogram) core.Policy { return Lockstep{} }},
		{"unbounded", func(*metrics.Histogram) core.Policy { return Unbounded{} }},
	}
	loads := []struct {
		name        string
		tasks, seed int
	}{{"dense", 37, 1}, {"sparse", 3, 2}}
	for _, sc := range schemes {
		for _, ld := range loads {
			name := sc.name + "/" + ld.name
			reg := metrics.New()
			h := reg.Histogram("drift.probe", metrics.UnitTime, metrics.DefaultTimeBounds())
			k := core.New(core.Config{Topo: topology.Mesh(25), Policy: sc.mk(h), Seed: int64(ld.seed)})
			tr := &traceHash{h: fnv.New64a()}
			k.SetTracer(tr)
			soup(k, int64(ld.seed), ld.tasks)
			res, err := k.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := soupPin{
				trace:  fmt.Sprintf("%d events %016x", tr.events, tr.h.Sum64()),
				result: fmt.Sprintf("%+v", res),
				probe:  "-",
			}
			if hs := reg.Snapshot().Histograms[0]; hs.Count > 0 {
				got.probe = fmt.Sprintf("count %d sum %d min %d max %d", hs.Count, hs.Sum, hs.Min, hs.Max)
			}
			if want := pins[name]; got != want {
				t.Errorf("%s moved:\n  got  %#v\n  want %#v", name, got, want)
			}
		}
	}
}
