package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simany/internal/network"
	"simany/internal/topology"
)

const (
	kindChurnSpawn network.Kind = 97
	kindChurnDone  network.Kind = 98
)

// churnKernel builds a 16-core mesh kernel whose workload continuously
// creates short-lived tasks through a spawn handler: each root loops,
// shipping a spawn request to a neighbor whose handler places a pooled
// (ReleaseOnDone) child there, then blocks until the child's completion
// message wakes it — so task creation and retirement interleave at steady
// state, exactly the pattern the pools are built for. This exercises the
// whole pooled lifecycle — worker reuse, task-struct recycling and the
// network hot path — on both engines.
func churnKernel(shards, workers, rounds int) *Kernel {
	k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
		Seed: 3, Shards: shards, Workers: workers})
	childFn := func(e *Env) {
		e.ComputeCycles(15)
		parent := e.Task().Meta.(*Task)
		e.Send(parent.Core().ID, kindChurnDone, 8, parent)
	}
	k.Handle(kindChurnDone, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	k.Handle(kindChurnSpawn, func(k *Kernel, msg network.Message) {
		t := k.NewTask(msg.Dst, "child", childFn, msg.Payload).ReleaseOnDone()
		k.PlaceTask(t, msg.Dst, msg.Arrival, nil)
	})
	for c := 0; c < 16; c++ {
		c := c
		k.InjectTask(c, "root", func(e *Env) {
			for i := 0; i < rounds; i++ {
				e.ComputeCycles(float64(5 + c%4))
				e.Send((c+1)%16, kindChurnSpawn, 32, e.Task())
				e.Block()
			}
		}, nil, 0)
	}
	return k
}

// TestTaskPoolRecyclesStructs: ReleaseOnDone tasks must actually flow back
// through the domain pools — churning far more tasks than stay live at once
// must not grow the task-struct population linearly.
func TestTaskPoolRecyclesStructs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		k := churnKernel(shards, 1, 50)
		if _, err := k.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		pooled := 0
		for _, d := range k.domains {
			pooled += len(d.freeTasks)
			if len(d.freeWorkers) != 0 {
				t.Errorf("shards=%d: %d workers left pooled after Run", shards, len(d.freeWorkers))
			}
		}
		if pooled == 0 {
			t.Errorf("shards=%d: no task structs recycled by a churn workload", shards)
		}
		// 16 roots × 50 spawn rounds ran 800 children; the pool must hold
		// far fewer structs than tasks that existed.
		if pooled > 200 {
			t.Errorf("shards=%d: pool holds %d structs — recycling is not reusing them", shards, pooled)
		}
	}
}

// TestTaskHandleSafeWithoutRelease: tasks that did not opt into recycling
// keep a stable, readable handle after completion even while pooled tasks
// churn around them (the regression pooling must never introduce).
func TestTaskHandleSafeWithoutRelease(t *testing.T) {
	k := churnKernel(4, 1, 30)
	done := k.InjectTask(2, "witness", func(e *Env) {
		e.ComputeCycles(100)
	}, "meta-payload", 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done.State() != TaskDone {
		t.Errorf("witness state = %v, want done", done.State())
	}
	if done.EndVT() <= 0 {
		t.Errorf("witness EndVT = %v, want > 0", done.EndVT())
	}
	if done.Name != "witness" || done.Meta != "meta-payload" {
		t.Errorf("witness identity mutated: %q %v", done.Name, done.Meta)
	}
}

// TestWorkerPoolShutdown: no Run may leave worker coroutines behind —
// neither the pooled ones of a completed run nor, on the terminal failures
// (deadlock, step limit, task panic), the ones parked inside a task body,
// whose bodies must be unwound without being reported as panics.
func TestWorkerPoolShutdown(t *testing.T) {
	// Every extra task counts its body's entry and (deferred) exit: a body
	// the kernel abandons mid-execution must still run its defers.
	// (Atomic: bodies on different shards run on different host workers.)
	var entered, exited atomic.Int64
	counted := func(body func(*Env)) func(*Env) {
		return func(e *Env) {
			entered.Add(1)
			defer exited.Add(1)
			body(e)
		}
	}
	for _, tc := range []struct {
		name    string
		prepare func(k *Kernel)
		wantErr string // substring of Run's error; empty for a clean run
	}{
		{"completed", func(*Kernel) {}, ""},
		{"deadlocked", func(k *Kernel) {
			for c := 0; c < 16; c++ {
				k.InjectTask(c, "stuck", counted(func(e *Env) { e.Block() }), nil, 0)
			}
		}, "deadlock"},
		{"step-limited", func(k *Kernel) { k.maxSteps = 300 }, "exceeded 300 scheduling steps"},
		{"panicking", func(k *Kernel) {
			k.InjectTask(5, "bomber", func(e *Env) {
				e.ComputeCycles(400)
				panic("boom")
			}, nil, 0)
		}, "boom"},
	} {
		for _, shards := range []int{1, 4} {
			before := runtime.NumGoroutine()
			entered.Store(0)
			exited.Store(0)
			for i := 0; i < 3; i++ {
				k := churnKernel(shards, 2, 20)
				k.InjectTask(9, "staller", counted(func(e *Env) {
					for j := 0; j < 200; j++ {
						e.ComputeCycles(50)
					}
				}), nil, 0)
				tc.prepare(k)
				_, err := k.Run()
				if tc.wantErr == "" && err != nil {
					t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("%s shards=%d: err = %v, want %q", tc.name, shards, err, tc.wantErr)
				}
				if _, again := k.Run(); tc.wantErr != "" && again != err {
					t.Errorf("%s shards=%d: second Run = %v, want the first failure again", tc.name, shards, again)
				}
			}
			if in, out := entered.Load(), exited.Load(); in < 3 || out != in {
				t.Errorf("%s shards=%d: %d bodies entered, %d exited", tc.name, shards, in, out)
			}
			if g := settledGoroutines(before); g > before {
				t.Errorf("%s shards=%d: goroutines grew %d -> %d: workers leaked", tc.name, shards, before, g)
			}
		}
	}
}

// settledGoroutines returns the goroutine count once it is back at before,
// or after two seconds: the sharded round's host goroutines are reaped
// asynchronously.
func settledGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestPausedRunKeepsParkedWorkers: ErrPaused is not a terminal exit — the
// tasks parked mid-body keep their coroutines and the next Run resumes
// them to the same Result as an uninterrupted run.
func TestPausedRunKeepsParkedWorkers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		want, err := churnKernel(shards, 2, 20).Run()
		if err != nil {
			t.Fatal(err)
		}
		k := churnKernel(shards, 2, 20)
		k.PauseAfter(5)
		if _, err := k.Run(); err != ErrPaused {
			t.Fatalf("shards=%d: err = %v, want ErrPaused", shards, err)
		}
		k.PauseAfter(0)
		got, err := k.Run()
		if err != nil {
			t.Fatalf("shards=%d: resumed run: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: paused+resumed result differs:\n  got  %+v\n  want %+v", shards, got, want)
		}
	}
}

// TestCoroutineResumedAcrossHostWorkers: with more shards than host
// workers, a shard — and so every worker coroutine parked in it — is driven
// by whichever host goroutine claims it that round. Tasks here stall and
// block across many barriers, so the same coroutine is resumed from
// different host goroutines; Result and trace must equal the one-worker
// run (and the race detector must stay quiet: CI runs this under -race).
func TestCoroutineResumedAcrossHostWorkers(t *testing.T) {
	run := func(workers int) (Result, []TraceEvent, int64) {
		k := churnKernel(4, workers, 80)
		tr := &sliceTracer{}
		k.SetTracer(tr)
		for c := 0; c < 16; c++ {
			k.InjectTask(c, "staller", func(e *Env) {
				for j := 0; j < 60; j++ {
					e.ComputeCycles(150)
				}
			}, nil, 0)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, tr.events, k.barriers
	}
	want, wantEvents, barriers := run(1)
	if want.Stalls < 100 || barriers < 20 {
		t.Fatalf("workload too tame: %d stalls over %d barriers", want.Stalls, barriers)
	}
	for i := 0; i < 3; i++ {
		got, gotEvents, _ := run(3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=3 result differs:\n  got  %+v\n  want %+v", got, want)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("workers=3 trace differs from workers=1 (%d vs %d events)", len(gotEvents), len(wantEvents))
		}
	}
}

// TestHandoffHasNoChannels: the kernel <-> task switch is a coroutine
// switch; a chan field on any of the three structs that take part in it
// means a channel rendezvous has crept back into the step.
func TestHandoffHasNoChannels(t *testing.T) {
	for _, v := range []any{domain{}, Task{}, taskWorker{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Chan {
				t.Errorf("%s.%s is a channel", typ.Name(), f.Name)
			}
		}
	}
}

// allocsPerStep runs the churn workload and reports host heap allocations
// per scheduling step.
func allocsPerStep(t *testing.T, shards, workers int) float64 {
	t.Helper()
	k := churnKernel(shards, workers, 60)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(res.Steps)
}

// TestStepAllocBudget pins the allocation budget of the kernel step loop on
// both engines so the pooled hot path cannot silently rot: the workload's
// own spawn-handler allocations (one pooled task miss at warm-up, handler
// closures) plus engine bookkeeping must stay within a small constant per
// step. This workload measures ~1.1 allocs/step on both engines with
// pooling (several times that without); the budget leaves ~2.5x headroom
// for noise while still catching a regression to per-task allocation.
func TestStepAllocBudget(t *testing.T) {
	const budget = 3.0
	for _, tc := range []struct {
		name            string
		shards, workers int
	}{
		{"seq", 1, 1},
		{"sharded", 4, 2},
	} {
		if got := allocsPerStep(t, tc.shards, tc.workers); got > budget {
			t.Errorf("%s: %.2f allocs/step, budget %.1f", tc.name, got, budget)
		}
	}
}

// TestMessageSeqAcrossWorkers: Message.Seq must be a function of
// (seed, shards) only — never of how many host threads drive the shards.
// Handlers record the seq of every delivered message on its destination
// (destination-owned state, race-free), and the per-destination streams
// must be identical at every worker count.
func TestMessageSeqAcrossWorkers(t *testing.T) {
	run := func(workers int) [][]uint64 {
		seqs := make([][]uint64, 16)
		k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
			Seed: 11, Shards: 4, Workers: workers})
		k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {
			seqs[msg.Dst] = append(seqs[msg.Dst], msg.Seq())
		})
		for c := 0; c < 16; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 25; i++ {
					e.ComputeCycles(float64(10 + c%3))
					e.Send((c+7)%16, kindOneWay, 16, nil)
					e.Send((c+3)%16, kindOneWay, 8, nil)
				}
			}, nil, 0)
		}
		if _, err := k.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return seqs
	}
	base := run(1)
	total := 0
	for _, s := range base {
		total += len(s)
	}
	if total == 0 {
		t.Fatal("no messages delivered")
	}
	for _, w := range []int{2, 4} {
		got := run(w)
		for dst := range base {
			if len(got[dst]) != len(base[dst]) {
				t.Fatalf("workers=%d dst=%d: %d seqs vs %d", w, dst, len(got[dst]), len(base[dst]))
			}
			for i := range base[dst] {
				if got[dst][i] != base[dst][i] {
					t.Fatalf("workers=%d dst=%d msg %d: seq %d != %d — Seq depends on worker interleaving",
						w, dst, i, got[dst][i], base[dst][i])
				}
			}
		}
	}
	// A per-(src) stream must also stay strictly increasing per source at
	// each destination pair — spot-check global uniqueness.
	seen := make(map[uint64]bool)
	for _, s := range base {
		for _, v := range s {
			if seen[v] {
				t.Fatalf("seq %d assigned to two messages", v)
			}
			seen[v] = true
		}
	}
}
