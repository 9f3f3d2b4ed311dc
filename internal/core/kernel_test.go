package core

import (
	"fmt"
	"strings"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func kernelOn(t *topology.Topology, pol Policy) *Kernel {
	return New(Config{Topo: t, Policy: pol, Seed: 1})
}

func TestSingleTaskRuns(t *testing.T) {
	k := kernelOn(topology.Mesh(1), Spatial{T: DefaultT})
	done := false
	k.InjectTask(0, "root", func(e *Env) {
		e.ComputeCycles(100)
		done = true
	}, nil, 0)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("task body did not run")
	}
	// 10-cycle task start + 100 cycles of compute.
	if res.FinalVT != vtime.CyclesInt(110) {
		t.Errorf("FinalVT = %v, want 110cy", res.FinalVT)
	}
}

func TestTaskStartCostAndArrival(t *testing.T) {
	k := kernelOn(topology.Mesh(1), Spatial{T: DefaultT})
	var startVT vtime.Time
	k.InjectTask(0, "late", func(e *Env) {
		startVT = e.Now()
	}, nil, vtime.CyclesInt(500))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if startVT != vtime.CyclesInt(510) {
		t.Errorf("task started at %v, want 510cy (arrival+start cost)", startVT)
	}
}

func TestSequentialTasksOnOneCore(t *testing.T) {
	k := kernelOn(topology.Mesh(1), Spatial{T: DefaultT})
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.InjectTask(0, name, func(e *Env) {
			e.ComputeCycles(10)
			order = append(order, name)
		}, nil, 0)
	}
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "abc" {
		t.Errorf("execution order = %v", order)
	}
	// 3 × (10 start + 10 compute).
	if res.FinalVT != vtime.CyclesInt(60) {
		t.Errorf("FinalVT = %v, want 60cy", res.FinalVT)
	}
}

func TestPolymorphicSpeedScalesCompute(t *testing.T) {
	topo := topology.Mesh(2)
	k := New(Config{Topo: topo, Speeds: []float64{0.5, 1.5}, Seed: 1})
	var vt0, vt1 vtime.Time
	k.InjectTask(0, "slow", func(e *Env) {
		base := e.Now()
		e.ComputeCycles(300)
		vt0 = e.Now() - base
	}, nil, 0)
	k.InjectTask(1, "fast", func(e *Env) {
		base := e.Now()
		e.ComputeCycles(300)
		vt1 = e.Now() - base
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if vt0 != vtime.CyclesInt(600) {
		t.Errorf("0.5x core took %v, want 600cy", vt0)
	}
	if vt1 != vtime.CyclesInt(200) {
		t.Errorf("1.5x core took %v, want 200cy", vt1)
	}
}

// record is a shared execution-order log used by drift tests; entries are
// appended in wall-clock (simulation) order.
type record struct {
	core int
	vt   vtime.Time
}

func runDriftWorkload(t *testing.T, topo *topology.Topology, pol Policy, taskCores []int, blocks int, blockCycles float64) []record {
	t.Helper()
	k := kernelOn(topo, pol)
	var log []record
	for _, cid := range taskCores {
		cid := cid
		k.InjectTask(cid, "worker", func(e *Env) {
			for i := 0; i < blocks; i++ {
				e.ComputeCycles(blockCycles)
				log = append(log, record{core: cid, vt: e.Now()})
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// maxPrefixDrift replays the execution log and returns the maximum drift
// between the last-seen virtual times of the observed cores, measured only
// once every core has produced at least one entry.
func maxPrefixDrift(log []record, cores []int) vtime.Time {
	last := make(map[int]vtime.Time)
	var maxDrift vtime.Time
	for _, r := range log {
		last[r.core] = r.vt
		if len(last) < len(cores) {
			continue
		}
		lo, hi := vtime.Inf, vtime.Time(0)
		for _, c := range cores {
			v := last[c]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if d := hi - lo; d > maxDrift {
			maxDrift = d
		}
	}
	return maxDrift
}

func TestSpatialBoundsNeighborDrift(t *testing.T) {
	T := vtime.CyclesInt(100)
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	log := runDriftWorkload(t, topo, Spatial{T: T}, []int{0, 1}, 40, 30)
	// Neighbors may drift by T, plus one 30cy block of overshoot and the
	// transient from the idle-shadow bootstrap (one extra T).
	limit := 2*T + vtime.CyclesInt(40)
	if d := maxPrefixDrift(log, []int{0, 1}); d > limit {
		t.Errorf("neighbor drift reached %v, limit %v", d, limit)
	}
	// Sanity: execution interleaved (both cores appear early in the log).
	seen := map[int]bool{}
	for i, r := range log {
		seen[r.core] = true
		if len(seen) == 2 {
			if i > 10 {
				t.Errorf("interleaving started only at log entry %d", i)
			}
			break
		}
	}
}

func TestShadowBoundsRemoteDrift(t *testing.T) {
	// Fig. 2 scenario: two active cores at the ends of a path of idle
	// cores. Shadow virtual times must keep the global drift under
	// diameter × T.
	T := vtime.CyclesInt(100)
	topo := topology.Mesh2D(5, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	log := runDriftWorkload(t, topo, Spatial{T: T}, []int{0, 4}, 100, 10)
	diam := vtime.Time(topo.Diameter())
	limit := diam*T + vtime.CyclesInt(20)
	if d := maxPrefixDrift(log, []int{0, 4}); d > limit {
		t.Errorf("remote drift reached %v, limit diam*T=%v", d, limit)
	}
}

func TestSmallerTMeansTighterDrift(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	logTight := runDriftWorkload(t, topo, Spatial{T: vtime.CyclesInt(20)}, []int{0, 1}, 50, 10)
	logLoose := runDriftWorkload(t, topo, Spatial{T: vtime.CyclesInt(2000)}, []int{0, 1}, 50, 10)
	dTight := maxPrefixDrift(logTight, []int{0, 1})
	dLoose := maxPrefixDrift(logLoose, []int{0, 1})
	if dTight >= dLoose {
		t.Errorf("T=20 drift %v not tighter than T=2000 drift %v", dTight, dLoose)
	}
}

func TestLockExemptionAllowsOverrun(t *testing.T) {
	// A core holding a lock must be able to run past the drift bound so it
	// can reach the release point (§II.B).
	T := vtime.CyclesInt(50)
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: T})
	var lockedSpan vtime.Time
	k.InjectTask(0, "locker", func(e *Env) {
		e.AcquireLockExempt()
		start := e.Now()
		e.ComputeCycles(5000) // way past any drift bound
		lockedSpan = e.Now() - start
		e.ReleaseLockExempt()
	}, nil, 0)
	k.InjectTask(1, "slow", func(e *Env) {
		for i := 0; i < 100; i++ {
			e.ComputeCycles(1)
		}
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lockedSpan != vtime.CyclesInt(5000) {
		t.Errorf("locked section spanned %v, want uninterrupted 5000cy", lockedSpan)
	}
}

// lockCountingPolicy is a global-minimum window that counts how often the
// kernel asks it about a core holding a lock.
type lockCountingPolicy struct{ lockedAsks *int }

func (lockCountingPolicy) Name() string { return "lock-counting" }

func (p lockCountingPolicy) Horizon(c *Core) vtime.Time {
	if c.LockDepth() > 0 {
		*p.lockedAsks++
	}
	m := c.Kernel().GlobalMinTime()
	if m == vtime.Inf {
		return m
	}
	return m + vtime.CyclesInt(20)
}

// TestPolicyNeverAskedForLockHolder: the lock-holder exemption (§II.B) is
// the kernel's, applied before any policy is consulted, so a policy that
// does not restate it still cannot stall a lock holder — and is never
// asked about one.
func TestPolicyNeverAskedForLockHolder(t *testing.T) {
	asks := 0
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, lockCountingPolicy{&asks})
	var span vtime.Time
	k.InjectTask(0, "locker", func(e *Env) {
		e.AcquireLockExempt()
		s := e.Now()
		e.ComputeCycles(1000)
		span = e.Now() - s
		e.ReleaseLockExempt()
		e.ComputeCycles(10)
	}, nil, 0)
	k.InjectTask(1, "other", func(e *Env) {
		for i := 0; i < 50; i++ {
			e.ComputeCycles(1)
		}
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if span != vtime.CyclesInt(1000) {
		t.Errorf("locked section spanned %v, want uninterrupted 1000cy", span)
	}
	if asks != 0 {
		t.Errorf("policy asked %d times about a core holding a lock", asks)
	}
}

func TestLockDepthUnderflowPanics(t *testing.T) {
	k := kernelOn(topology.Mesh(1), Spatial{T: DefaultT})
	k.InjectTask(0, "bad", func(e *Env) {
		e.ReleaseLockExempt()
	}, nil, 0)
	if _, err := k.Run(); err == nil {
		t.Fatal("expected error from lock underflow panic")
	}
}

const (
	kindPing network.Kind = iota + 1
	kindPong
	kindOneWay
)

func TestRequestReply(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: DefaultT})
	// Ping handler: replies after a 10-cycle handling delay.
	k.Handle(kindPing, func(k *Kernel, msg network.Message) {
		req := msg.Payload.(*Task)
		k.SendAt(msg.Dst, msg.Src, kindPong, 8, req, msg.Arrival+vtime.CyclesInt(10))
	})
	k.Handle(kindPong, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	var sendVT, wakeVT vtime.Time
	k.InjectTask(0, "client", func(e *Env) {
		e.ComputeCycles(100)
		sendVT = e.Now()
		e.Send(1, kindPing, 8, e.Task())
		wakeVT = e.Block()
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Round trip: 2 × one-hop latency + 10 cycles of handling; the wake
	// stamp must be after send plus that.
	minRT := 2*k.Network().MinLatency(0, 1, 8) + vtime.CyclesInt(10)
	if wakeVT < sendVT+minRT {
		t.Errorf("wake at %v, want >= %v", wakeVT, sendVT+minRT)
	}
}

func TestBlockedTaskFreesCore(t *testing.T) {
	// While one task is blocked, another task on the same core runs; the
	// blocked task resumes with the 15-cycle context-switch cost.
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	var order []string
	var resumeVT vtime.Time
	k2 := kernelOn(topo, Spatial{T: DefaultT})
	k2.Handle(kindOneWay, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	var blocker *Task
	blocker = k2.InjectTask(0, "blocker", func(e *Env) {
		order = append(order, "blocker-pre")
		e.Block()
		resumeVT = e.Now()
		order = append(order, "blocker-post")
	}, nil, 0)
	k2.InjectTask(0, "filler", func(e *Env) {
		e.ComputeCycles(200)
		order = append(order, "filler")
	}, nil, 0)
	k2.InjectTask(1, "waker", func(e *Env) {
		e.ComputeCycles(500)
		e.Send(0, kindOneWay, 8, blocker)
	}, nil, 0)
	if _, err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"blocker-pre", "filler", "blocker-post"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("order = %v, want %v", order, want)
	}
	// Resume stamp: at least the waker's 510cy send + transit + switch.
	if resumeVT < vtime.CyclesInt(510)+ctxSwitchCost {
		t.Errorf("blocker resumed at %v", resumeVT)
	}
}

func TestPendingWakeFastPath(t *testing.T) {
	// A reply handled synchronously before the requester blocks must be
	// consumed by Block without a deadlock.
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: DefaultT})
	k.Handle(kindPing, func(k *Kernel, msg network.Message) {
		// Immediate unblock: requester is still running.
		k.Unblock(msg.Payload.(*Task), msg.Arrival+vtime.CyclesInt(3))
	})
	var wake, send vtime.Time
	k.InjectTask(0, "client", func(e *Env) {
		send = e.Now()
		e.Send(1, kindPing, 8, e.Task())
		wake = e.Block()
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake <= send {
		t.Errorf("wake %v not after send %v", wake, send)
	}
}

// TestKernelSendZeroAllocSteadyState extends network's zero-allocation
// check to the kernel path: a warmed ping-pong — Env.Send to the far
// corner, whose handler replies with SendAt — allocates nothing per
// message. The message is built on the sender's stack and travels by
// pointer down to network.Model.Transmit; a Handler that took the pointer
// would make it escape, one allocation per message.
func TestKernelSendZeroAllocSteadyState(t *testing.T) {
	for _, spec := range []string{"mesh:8x8", "chiplet:8x8,4x4"} {
		t.Run(spec, func(t *testing.T) {
			topo, err := topology.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			k := kernelOn(topo, Spatial{T: DefaultT})
			pongs := 0
			k.Handle(kindPing, func(k *Kernel, msg network.Message) {
				k.SendAt(msg.Dst, msg.Src, kindPong, 8, msg.Payload, msg.Arrival+vtime.CyclesInt(1))
			})
			k.Handle(kindPong, func(*Kernel, network.Message) { pongs++ })
			far := topo.N() - 1
			var allocs float64
			k.InjectTask(0, "pinger", func(e *Env) {
				e.Send(far, kindPing, 8, e.Task()) // first sends allocate the FIFO clamp pages
				allocs = testing.AllocsPerRun(200, func() {
					e.Send(far, kindPing, 8, e.Task())
				})
			}, nil, 0)
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if pongs < 200 {
				t.Fatalf("%d round trips, want at least 200", pongs)
			}
			if allocs != 0 {
				t.Errorf("a warmed ping-pong allocates %.1f times per round trip, want 0", allocs)
			}
		})
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := kernelOn(topology.Mesh(1), Spatial{T: DefaultT})
	k.InjectTask(0, "stuck", func(e *Env) {
		e.Block() // nobody will ever unblock
	}, nil, 0)
	_, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock report misses task name: %v", err)
	}
}

// TestTaskPanicSurfaces: a panicking body ends the run with an error that
// names the task, the core it ran on and that core's virtual time, and keeps
// the stack — on both engines.
func TestTaskPanicSurfaces(t *testing.T) {
	for _, shards := range []int{1, 4} {
		k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT}, Seed: 1, Shards: shards, Workers: 2})
		for c := 0; c < 16; c++ {
			k.InjectTask(c, "bystander", func(e *Env) {
				for i := 0; i < 50; i++ {
					e.ComputeCycles(40)
				}
			}, nil, 0)
		}
		bomber := k.InjectTask(6, "bomber", func(e *Env) {
			e.ComputeCycles(25)
			panic("boom")
		}, nil, vtime.CyclesInt(3000))
		_, err := k.Run()
		if err == nil {
			t.Fatalf("shards=%d: no error from a panicking task", shards)
		}
		// The bomber starts once the bystander on core 6 is done (2010
		// cycles), at its own arrival stamp plus the start cost.
		at := vtime.CyclesInt(3000) + taskStartCost + vtime.CyclesInt(25)
		head := fmt.Sprintf("task %q (id %d) on core 6 at vt %v panicked: boom\n", "bomber", bomber.ID, at)
		if msg := err.Error(); !strings.HasPrefix(msg, head) || !strings.Contains(msg, "kernel_test.go") {
			t.Errorf("shards=%d: err = %v\nwant prefix %q and a stack through this file", shards, err, head)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() vtime.Time {
		topo := topology.Mesh(4)
		k := kernelOn(topo, Spatial{T: DefaultT})
		k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {
			k.Unblock(msg.Payload.(*Task), msg.Arrival)
		})
		for c := 0; c < 4; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 20; i++ {
					e.ComputeCycles(float64(7 + c))
				}
			}, nil, 0)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalVT
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

type fixedMem struct{ d vtime.Time }

func (m fixedMem) Access(c *Core, base uint64, n int64, elem int, write bool, now vtime.Time) vtime.Time {
	return m.d * vtime.Time(n)
}

func TestMemSystemCharged(t *testing.T) {
	topo := topology.Mesh(1)
	k := New(Config{Topo: topo, Mem: fixedMem{d: vtime.CyclesInt(10)}, Seed: 1})
	var span vtime.Time
	k.InjectTask(0, "reader", func(e *Env) {
		s := e.Now()
		e.Read(0, 5, 8)
		e.Write(100, 3, 8)
		span = e.Now() - s
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if span != vtime.CyclesInt(80) {
		t.Errorf("memory span = %v, want 80cy", span)
	}
	if k.Core(0).Stats().MemTime != vtime.CyclesInt(80) {
		t.Errorf("MemTime stat = %v", k.Core(0).Stats().MemTime)
	}
}

func TestStatsCounters(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: vtime.CyclesInt(10)})
	k.InjectTask(0, "a", func(e *Env) {
		for i := 0; i < 30; i++ {
			e.ComputeCycles(20)
		}
	}, nil, 0)
	k.InjectTask(1, "b", func(e *Env) {
		for i := 0; i < 30; i++ {
			e.ComputeCycles(20)
		}
	}, nil, 0)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls == 0 {
		t.Error("expected stalls with tiny T")
	}
	if got := k.Core(0).Stats().TaskStarts; got != 1 {
		t.Errorf("task starts = %d", got)
	}
	if res.Steps <= 2 {
		t.Errorf("steps = %d, expected interleaving", res.Steps)
	}
}

func TestHugeTRunsWithoutInterleaving(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: vtime.CyclesInt(1_000_000)})
	k.InjectTask(0, "a", func(e *Env) {
		for i := 0; i < 50; i++ {
			e.ComputeCycles(10)
		}
	}, nil, 0)
	k.InjectTask(1, "b", func(e *Env) {
		for i := 0; i < 50; i++ {
			e.ComputeCycles(10)
		}
	}, nil, 0)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 {
		t.Errorf("stalls = %d with huge T", res.Stalls)
	}
	// Each task runs to completion in a single scheduling step.
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2", res.Steps)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := New(Config{Topo: topo, Policy: Spatial{T: vtime.CyclesInt(1)}, MaxSteps: 10, Seed: 1})
	k.InjectTask(0, "a", func(e *Env) {
		for i := 0; i < 1000; i++ {
			e.ComputeCycles(5)
		}
	}, nil, 0)
	k.InjectTask(1, "b", func(e *Env) {
		for i := 0; i < 1000; i++ {
			e.ComputeCycles(5)
		}
	}, nil, 0)
	if _, err := k.Run(); err == nil {
		t.Fatal("expected MaxSteps error")
	}
}

// TestSpinWaitEndsRoundAtStepBudget: a core that spins with Env.Yield on a
// flag another shard sets through Kernel.Defer never advances its clock,
// so the round limit never stops it, and the deferred store lands only at
// the next barrier. shardStepBudget is what ends that round: 512 spins (64
// per core of the spinner's 8-core shard), the barrier, one last step.
// Without the budget the round spins on until MaxSteps.
func TestSpinWaitEndsRoundAtStepBudget(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT}, Seed: 1, Shards: 2, MaxSteps: 10000})
	if k.part[0] == k.part[15] {
		t.Fatal("cores 0 and 15 share a shard")
	}
	set := false
	k.InjectTask(0, "spinner", func(e *Env) {
		for !set {
			e.Yield()
		}
	}, nil, 0)
	k.InjectTask(15, "setter", func(e *Env) {
		e.Kernel().Defer(15, e.Now(), func() { set = true })
	}, nil, 0)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(shardStepBudget*8 + 2); res.Steps != want {
		t.Errorf("steps = %d, want %d", res.Steps, want)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	k := kernelOn(topology.Mesh(1), Spatial{T: DefaultT})
	k.Handle(kindPing, func(*Kernel, network.Message) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate handler")
		}
	}()
	k.Handle(kindPing, func(*Kernel, network.Message) {})
}

// TestNonPositiveDriftRejected: Spatial{T ≤ 0} has no well-defined idle
// shadow times (T = 0 lets idle cores sustain each other's stale values,
// T < 0 hands out horizons behind the slowest neighbor), so construction
// refuses it instead of running it on some other path.
func TestNonPositiveDriftRejected(t *testing.T) {
	for _, T := range []vtime.Time{0, vtime.CyclesInt(-5)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Spatial{T: %v} accepted", T)
				}
			}()
			kernelOn(topology.Mesh(4), Spatial{T: T})
		}()
	}
}

func TestBirthTracking(t *testing.T) {
	// A spawned task counts as a pseudo-neighbor of its spawning core
	// between the spawn and its arrival at the final destination (§II.A
	// Fig. 3): RegisterBirth must tighten the horizon immediately, and
	// PlaceTask with the birth owner must relax it again.
	T := vtime.CyclesInt(100)
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: T})
	var childStart vtime.Time
	k.InjectTask(0, "parent", func(e *Env) {
		e.ComputeCycles(50)
		spawnVT := e.Now()
		child := k.NewTask(0, "child", func(ce *Env) {
			childStart = ce.Now()
			ce.ComputeCycles(10)
		}, nil)
		k.RegisterBirth(k.Core(0), child, spawnVT)
		// While the spawn is in flight, the parent's drift is bounded by
		// the child's birth stamp.
		if h := k.Policy().Horizon(k.Core(0)); h != spawnVT+T {
			t.Errorf("horizon with in-flight birth = %v, want %v", h, spawnVT+T)
		}
		k.PlaceTask(child, 1, spawnVT+vtime.CyclesInt(5), k.Core(0))
		// Arrival at the destination discards the birth date.
		if h := k.Policy().Horizon(k.Core(0)); h <= spawnVT+T {
			t.Errorf("horizon after arrival = %v, still birth-bound", h)
		}
		e.ComputeCycles(500) // must not stall on the discarded birth
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childStart == 0 {
		t.Fatal("child did not run")
	}
}

func TestResultNetworkTotals(t *testing.T) {
	topo := topology.Mesh2D(2, 1, topology.DefaultLatency, topology.DefaultBandwidth)
	k := kernelOn(topo, Spatial{T: DefaultT})
	k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
	k.InjectTask(0, "sender", func(e *Env) {
		for i := 0; i < 5; i++ {
			e.Send(1, kindOneWay, 64, nil)
		}
	}, nil, 0)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5 || res.Bytes != 320 {
		t.Errorf("network totals = %d msgs %d bytes", res.Messages, res.Bytes)
	}
	if res.Handled != 5 {
		t.Errorf("handled = %d", res.Handled)
	}
}
