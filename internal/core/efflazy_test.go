package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestAnchorHeapRandomOps drives the anchor heap through randomized
// idle→busy flips, anchor advances and busy→idle flips on one shard of a
// small mesh — through effSite, the only production writer — and checks
// after every operation that the root is the minimal maintained eff, every
// busyPos names its slot, the heap holds exactly the busy cores, and
// effFloor equals a brute-force minimum over the anchors (busy cores and
// the shard's frozen foreign proxies). Halfway through, a finite frozen
// proxy is planted so the floor comes from either side.
func TestAnchorHeapRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k := New(Config{Topo: topology.Mesh(36), Policy: Spatial{T: DefaultT}, Seed: seed, Shards: 2})
			d := k.domains[0]
			rng := rand.New(rand.NewSource(seed))
			const ops = 2000
			for op := 0; op < ops; op++ {
				c := d.cores[rng.Intn(len(d.cores))]
				switch {
				case c.idle:
					setBusy(c, vtime.CyclesInt(rng.Int63n(5000)))
				case rng.Intn(3) == 0:
					setIdle(c)
				default:
					setBusy(c, c.vt+vtime.CyclesInt(rng.Int63n(300)))
				}
				if op == ops/2 {
					plantFrozenProxy(t, k, d, vtime.CyclesInt(2500))
				}
				h := d.busyList.heap
				if len(h) != d.busy {
					t.Fatalf("op %d: heap holds %d anchors, %d cores are busy", op, len(h), d.busy)
				}
				busyMin := vtime.Inf
				for _, b := range d.cores {
					switch {
					case b.idle && b.busyPos != -1:
						t.Fatalf("op %d: idle core %d keeps slot %d", op, b.ID, b.busyPos)
					case !b.idle && (b.busyPos < 0 || b.busyPos >= len(h) || h[b.busyPos] != b):
						t.Fatalf("op %d: busy core %d records slot %d, which does not hold it", op, b.ID, b.busyPos)
					case !b.idle:
						busyMin = min(busyMin, b.eff)
					}
				}
				if len(h) > 0 && h[0].eff != busyMin {
					t.Fatalf("op %d: root advertises %v, minimum busy eff %v", op, h[0].eff, busyMin)
				}
				if got, want := d.effFloor(), min(busyMin, d.frozenFloor); got != want {
					t.Fatalf("op %d: effFloor %v, brute-force minimum %v", op, got, want)
				}
				if err := k.Validate(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

// plantFrozenProxy freezes v into one cross-shard proxy of d, as a barrier
// refresh would have.
func plantFrozenProxy(t *testing.T, k *Kernel, d *domain, v vtime.Time) {
	t.Helper()
	for _, c := range d.cores {
		for j, nbID := range c.neighbors {
			if k.cores[nbID].dom != d {
				c.nbEff[j] = v
				d.frozenFloor = v
				d.effInvalidate()
				return
			}
		}
	}
	t.Fatal("shard has no foreign neighbor")
}

// effCounts is the sum over a kernel's domains of the test-read search
// counters: region searches (lazyFix calls) and the neighbour visits they
// made.
type effCounts struct{ searches, visits int64 }

func countEff(k *Kernel) (n effCounts) {
	for _, d := range k.domains {
		n.searches += d.effSearches
		n.visits += d.effVisits
	}
	return n
}

// sparseVisitsCeiling pins the mean neighbour visits of one region search
// on TestSparseReadsNeverScan's workload (measured 12.36 / 9.27 / 8.92 on
// the 1k / 10k / 100k machines; the benchmark's sparse-100k reads 10.7).
// A floor that stops deciding shows here as a count, on any host.
const sparseVisitsCeiling = 15

// TestSparseReadsNeverScan is the benchmark's sparse-100k shape on
// machines from 1k to 100k cores: 64 strided tasks of 100 equal slices,
// never synchronised by a message. Their anchors stay within a few T of
// each other, so the exact floor ends every region search within a few
// rings: a search must stay about ten neighbour visits long however large
// the idle region around it, so the per-completion cost of a sparse
// machine does not grow with the machine.
func TestSparseReadsNeverScan(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"1k", "chiplet:8x8,4x4"},
		{"10k", "chiplet:8x8,4x4,3x3"},
		{"100k", "chiplet:8x8,4x4,10x10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "100k" && testing.Short() {
				t.Skip("100k-core machine build in -short mode")
			}
			topo, err := topology.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 42})
			const tasks, slices = 64, 100
			stride := topo.N() / tasks
			for i := 0; i < tasks; i++ {
				k.InjectTask(i*stride, "w", func(e *Env) {
					for s := 0; s < slices; s++ {
						e.ComputeCycles(100)
					}
				}, nil, 0)
			}
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
			n := countEff(k)
			if n.searches == 0 || n.visits > sparseVisitsCeiling*n.searches {
				t.Errorf("%d neighbour visits in %d region searches, ceiling %d per search", n.visits, n.searches, sparseVisitsCeiling)
			}
			t.Logf("%d searches, %d visits (%.2f per search)", n.searches, n.visits, float64(n.visits)/float64(n.searches))
		})
	}
}

// lateCohortBudget bounds the whole late-cohort test (two runs on the
// 102400-core machine); the same figure as TestScale100kSparse's budget
// for one run.
const lateCohortBudget = 90 * time.Second

// TestLateCohortSearchCost runs the shape that costs the floor-only region
// search the most (docs/effective-time.md, "The late cohort"). On the
// 102400-core chiplet machine 199 strided tasks open with one long native
// block, which puts them 150 T ahead of the one fine-grained task that
// starts beside them at 0. That task is the floor, and it lags the cohort
// by far more than a few rings' worth of T, so around every cohort core
// the search runs over a hundred rings deep before the floor ends it. The
// cohort's uneven closing blocks then spread it over a few T, so shards
// read one another's frozen proxies too. Results are pinned (recorded
// while a linear scan was checked to schedule them identically), and
// Kernel.Validate must hold at sampled picks, on the sequential engine and
// on 16 shards, within the wall budget.
func TestLateCohortSearchCost(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core machine build in -short mode")
	}
	topo, err := topology.ParseSpec("chiplet:8x8,4x4,10x10")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, tc := range []struct {
		shards int
		want   string
	}{
		{1, "{FinalVT:15820cy Steps:775 Messages:0 Hops:0 Bytes:0 OutOfOrder:0 Handled:0 Stalls:575 Instructions:0 AvgRunnable:153.25806451612902 MaxRunnable:200 Shards:1 PerShard:[{Cores:102400 Steps:775 Util:1}]}"},
		{16, "{FinalVT:15820cy Steps:874 Messages:0 Hops:0 Bytes:0 OutOfOrder:0 Handled:0 Stalls:674 Instructions:0 AvgRunnable:5.91533180778032 MaxRunnable:14 Shards:16 PerShard:[" +
			"{Cores:7168 Steps:105 Util:0.12013729977116705} {Cores:7168 Steps:57 Util:0.06521739130434782} {Cores:7168 Steps:58 Util:0.06636155606407322} {Cores:7168 Steps:60 Util:0.06864988558352403} " +
			"{Cores:6144 Steps:47 Util:0.05377574370709382} {Cores:6144 Steps:52 Util:0.059496567505720827} {Cores:6144 Steps:47 Util:0.05377574370709382} {Cores:6144 Steps:52 Util:0.059496567505720827} " +
			"{Cores:6144 Steps:47 Util:0.05377574370709382} {Cores:6144 Steps:52 Util:0.059496567505720827} {Cores:6144 Steps:47 Util:0.05377574370709382} {Cores:6144 Steps:52 Util:0.059496567505720827} " +
			"{Cores:6144 Steps:47 Util:0.05377574370709382} {Cores:6144 Steps:52 Util:0.059496567505720827} {Cores:6144 Steps:47 Util:0.05377574370709382} {Cores:6144 Steps:52 Util:0.059496567505720827}]}"},
	} {
		k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 7, Shards: tc.shards, Workers: 1})
		// Validate only while most of the cohort is still busy: once the
		// anchors thin out, its own relaxation sweeps the machine hundreds
		// of times per call.
		picks := 0
		k.onPick = func(*Core, vtime.Time, int) {
			if picks++; picks%150 == 0 && picks <= 600 {
				if err := k.Validate(); err != nil {
					panic(fmt.Sprintf("pick %d: %v", picks, err))
				}
			}
		}
		const cohort, lead = 200, 150
		stride := topo.N() / cohort
		for i := 1; i < cohort; i++ {
			block := float64(60 + 30*(i%8)) // uneven, so the cohort spreads over a few T
			k.InjectTask(i*stride, "cohort", func(e *Env) {
				e.ComputeCycles(lead * 100)
				for s := 0; s < 3; s++ {
					e.ComputeCycles(block)
				}
			}, nil, 0)
		}
		k.InjectTask(0, "laggard", func(e *Env) {
			for s := 0; s < lead+3; s++ {
				e.ComputeCycles(100)
			}
		}, nil, 0)
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", res); got != tc.want {
			t.Errorf("shards=%d: Result moved:\n  got  %s\n  want %s", tc.shards, got, tc.want)
		}
		n := countEff(k)
		t.Logf("shards=%d: %d steps, %d searches, %d visits", tc.shards, res.Steps, n.searches, n.visits)
	}
	if wall := time.Since(start); wall > lateCohortBudget {
		t.Errorf("late-cohort runs took %v, budget %v", wall, lateCohortBudget)
	}
}
