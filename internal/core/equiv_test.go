package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// Equivalence suite (docs/scheduler.md, docs/effective-time.md): a seeded
// random workload of spawns, request/reply blocking, wake-ups, lock
// sections and spatial stalls must produce, per domain, exactly the
// (core, key) pick sequence — and the Result — recorded in
// testdata/equiv_golden.json.
//
// The recording was made at commit 423337b, the last one that carried the
// reference implementations as kernel modes, from the linear-scan
// scheduler with the eager effective-time flood (Config{Sched: SchedScan,
// Eff: EffEager}). It is therefore an oracle independent of everything
// the kernel runs today: the indexed queues and lazily evaluated idle
// regions (TestEffEquivalence*) and the scan over the same lazy values
// (TestSchedulerEquivalence*) are each held to it, so a change that
// shifts all of them together still fails. To regenerate after a
// deliberate semantic change, record from a build you trust by running
// runEquivCase over equivCases and marshalling the map.
//
// Dense soups (more tasks than cores, constant region churn) exercise
// wake/sleep flips and memo invalidation under load; sparse ones (three
// tasks on the whole machine) exercise region split/merge around a small
// busy frontier, where a pick stalls far more often than it completes.
// T = 1 cycle makes nearly every block a stall. The sharded engine adds
// frozen cross-shard proxies as BFS anchors and the barrier-time memo
// reseeding. CI runs this file under the race detector.

const (
	kindEquivEcho network.Kind = 240 + iota
	kindEquivWake
	kindEquivSpawn
)

type equivSpawn struct {
	task  *Task
	birth *Core
}

// equivWorkload injects a randomized task soup derived from seed. Every
// decision inside task bodies draws from RNGs seeded by (seed, core/task),
// never from host state, so two kernels with equal (seed, shards) run the
// same program regardless of scheduler implementation.
func equivWorkload(k *Kernel, seed int64, tasks int) {
	n := k.NumCores()
	k.Handle(kindEquivEcho, func(k *Kernel, msg network.Message) {
		// Reply after a small handling cost; the requester blocks on it.
		req := msg.Payload.(*Task)
		k.SendAt(msg.Dst, req.core.ID, kindEquivWake, 8, req,
			msg.Arrival+vtime.CyclesInt(3))
	})
	k.Handle(kindEquivWake, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	k.Handle(kindEquivSpawn, func(k *Kernel, msg network.Message) {
		sp := msg.Payload.(equivSpawn)
		k.PlaceTask(sp.task, msg.Dst, msg.Arrival, sp.birth)
	})

	var body func(depth int, taskSeed int64) func(*Env)
	body = func(depth int, taskSeed int64) func(*Env) {
		return func(e *Env) {
			rng := rand.New(rand.NewSource(taskSeed))
			rounds := 2 + rng.Intn(4)
			for i := 0; i < rounds; i++ {
				e.ComputeCycles(float64(1 + rng.Intn(220)))
				switch rng.Intn(5) {
				case 0: // request/reply block (may hit the pendingWake path)
					dst := rng.Intn(n)
					e.Send(dst, kindEquivEcho, 16, e.Task())
					e.Block()
				case 1: // lock-holder exemption window
					e.AcquireLockExempt()
					e.ComputeCycles(float64(1 + rng.Intn(150)))
					e.ReleaseLockExempt()
				case 2: // spawn a child elsewhere, with a birth entry
					if depth < 2 {
						me := e.CoreID()
						child := k.NewTask(me, fmt.Sprintf("c%d", taskSeed),
							body(depth+1, taskSeed*31+int64(i)+7), nil)
						k.RegisterBirth(k.Core(me), child, e.Now())
						e.Send(rng.Intn(n), kindEquivSpawn, 24,
							equivSpawn{task: child, birth: k.Core(me)})
					}
				case 3: // cooperative yield (re-enters the scheduler)
					e.Yield()
				default: // plain compute burst
					e.ComputeCycles(float64(1 + rng.Intn(60)))
				}
			}
		}
	}

	root := rand.New(rand.NewSource(seed))
	for i := 0; i < tasks; i++ {
		core := root.Intn(n)
		at := vtime.CyclesInt(int64(root.Intn(400)))
		k.InjectTask(core, fmt.Sprintf("t%d", i), body(0, seed*97+int64(i)), nil, at)
	}
}

// equivCase is one input of the suite; name is its key in the golden file.
type equivCase struct {
	name   string
	topo   func() *topology.Topology
	shards int
	tasks  int
	t      vtime.Time
	seed   int64
}

func equivCases() []equivCase {
	chiplet := func() *topology.Topology {
		topo, err := topology.ParseSpec("chiplet:3x3,2x2")
		if err != nil {
			panic(err)
		}
		return topo
	}
	topos := []struct {
		name string
		topo func() *topology.Topology
	}{
		{"mesh25", func() *topology.Topology { return topology.Mesh(25) }},
		{"clustered24", func() *topology.Topology {
			return topology.Clustered(24, topology.DefaultClusteredParams(4))
		}},
		{"chiplet36", chiplet},
	}
	var cases []equivCase
	for _, tc := range topos {
		n := tc.topo().N()
		for _, eng := range []struct {
			name   string
			shards int
		}{{"seq", 1}, {"sharded4", 4}} {
			for _, load := range []struct {
				name  string
				tasks int
			}{{"dense", 3 * n / 2}, {"sparse", 3}} {
				for _, tCycles := range []int64{100, 1} {
					for _, seed := range []int64{1, 2, 7, 11, 23} {
						cases = append(cases, equivCase{
							name:   fmt.Sprintf("%s/%s/%s/T%d/seed%d", tc.name, eng.name, load.name, tCycles, seed),
							topo:   tc.topo,
							shards: eng.shards,
							tasks:  load.tasks,
							t:      vtime.CyclesInt(tCycles),
							seed:   seed,
						})
					}
				}
			}
		}
	}
	return cases
}

// pickHash summarizes one domain's pick sequence: its length and the
// FNV-1a hash of every (core, key) in order.
type pickHash struct {
	N   int    `json:"n"`
	FNV string `json:"fnv"`
}

// equivOutcome is what one run of a case produces and what the golden
// file stores for it. Pick order is only deterministic within a domain
// (workers interleave domains), so sequences are hashed per shard.
type equivOutcome struct {
	Picks  []pickHash `json:"picks"`
	Result Result     `json:"result"`
}

// useScan drops the kernel's runnable index before anything is placed, so
// every domain schedules through scanRunnable: the in-package seam that
// keeps the scan testable under a policy whose horizon is cacheable.
func useScan(k *Kernel) {
	for _, d := range k.domains {
		d.rq, d.sq = nil, nil
	}
}

// runEquivCase runs one case. prep, when non-nil, adjusts the fresh kernel
// before the workload is injected; validate makes every scheduling
// decision run Kernel.Validate first, which is only sound when no other
// domain is mid-step (sequential engine, or one worker).
func runEquivCase(t *testing.T, c equivCase, workers int, validate bool, prep func(*Kernel)) equivOutcome {
	t.Helper()
	k := New(Config{
		Topo:    c.topo(),
		Policy:  Spatial{T: c.t},
		Seed:    c.seed,
		Shards:  c.shards,
		Workers: workers,
	})
	if prep != nil {
		prep(k)
	}
	type acc struct {
		n int
		h hash.Hash64
	}
	accs := make([]acc, k.NumShards())
	for i := range accs {
		accs[i].h = fnv.New64a()
	}
	k.onPick = func(core *Core, key vtime.Time) {
		if validate {
			if err := k.Validate(); err != nil {
				panic(fmt.Sprintf("%s: invariant violation before pick of core %d: %v", c.name, core.ID, err))
			}
		}
		var buf [12]byte
		binary.LittleEndian.PutUint32(buf[:4], uint32(core.ID))
		binary.LittleEndian.PutUint64(buf[4:], uint64(key))
		a := &accs[core.dom.id]
		a.n++
		a.h.Write(buf[:])
	}
	equivWorkload(k, c.seed, c.tasks)
	res, err := k.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	out := equivOutcome{Result: res}
	total := 0
	for _, a := range accs {
		total += a.n
		out.Picks = append(out.Picks, pickHash{N: a.n, FNV: fmt.Sprintf("%016x", a.h.Sum64())})
	}
	// A degenerate workload would make the comparison vacuous; every task
	// needs at least one scheduling decision.
	if total < c.tasks {
		t.Fatalf("%s: only %d scheduling decisions recorded, want >= %d", c.name, total, c.tasks)
	}
	return out
}

func loadEquivGolden(t *testing.T) map[string]equivOutcome {
	t.Helper()
	b, err := os.ReadFile("testdata/equiv_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]equivOutcome
	if err := json.Unmarshal(b, &golden); err != nil {
		t.Fatal(err)
	}
	if want := len(equivCases()); len(golden) != want {
		t.Fatalf("golden file holds %d cases, the suite has %d", len(golden), want)
	}
	return golden
}

func checkEquiv(t *testing.T, what string, got, want equivOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.Picks, want.Picks) {
		t.Errorf("%s: pick sequences diverged from the recording:\n  got  %+v\n  want %+v", what, got.Picks, want.Picks)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("%s: Result diverged from the recording:\n  got  %+v\n  want %+v", what, got.Result, want.Result)
	}
}

// TestEffEquivalenceGolden holds the production path — indexed queues,
// lazily evaluated idle regions — to the recording, with Kernel.Validate
// (heap membership and keys against the runnable computation, every fresh
// memo against an independent relaxation) before every pick. Sharded
// cases run once more on three workers, where per-pick validation would
// race and the barrier-time checks of the Validated test below take over.
func TestEffEquivalenceGolden(t *testing.T) {
	golden := loadEquivGolden(t)
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			want := golden[c.name]
			prep := func(k *Kernel) {
				if got := k.Scheduler(); got != "index" {
					t.Fatalf("scheduler = %q, want index (spatial horizons are cacheable)", got)
				}
			}
			checkEquiv(t, "index, one worker", runEquivCase(t, c, 1, true, prep), want)
			if c.shards > 1 {
				checkEquiv(t, "index, three workers", runEquivCase(t, c, 3, false, prep), want)
			}
		})
	}
}

// TestSchedulerEquivalenceGolden holds the scan — the production
// scheduler of every policy whose horizon is not cacheable — to the same
// recording, pulling horizons through the lazily evaluated neighborhood
// minimum with no runq or stall heap.
func TestSchedulerEquivalenceGolden(t *testing.T) {
	golden := loadEquivGolden(t)
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			prep := func(k *Kernel) {
				useScan(k)
				if got := k.Scheduler(); got != "scan" {
					t.Fatalf("scheduler = %q, want scan", got)
				}
			}
			checkEquiv(t, "scan", runEquivCase(t, c, 3, false, prep), golden[c.name])
		})
	}
}

// TestEffEquivalenceValidated reruns the workload with a ValidatingTracer,
// so every trace event — mid-step ones included, which the per-pick check
// above never sees — checks the queue minima caches, the structural
// invariants of both heaps, the busy-frontier partition, the pruning
// floors, and every fresh memo against an independently recomputed
// fixpoint (Kernel.Validate) during a live randomized run.
func TestEffEquivalenceValidated(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{5, 9} {
			t.Run(fmt.Sprintf("shards%d/seed%d", shards, seed), func(t *testing.T) {
				k := New(Config{
					Topo:    topology.Mesh(16),
					Policy:  Spatial{T: DefaultT},
					Seed:    seed,
					Shards:  shards,
					Workers: 2,
				})
				k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
				equivWorkload(k, seed, 24)
				if _, err := k.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
