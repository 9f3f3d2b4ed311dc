package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestAnchorHeapRandomOps drives the anchor heap through randomized
// idle→busy flips, anchor advances and busy→idle flips on one shard of a
// small mesh — through effSite, the only production writer — and checks
// after every operation that the root is the minimal maintained eff, every
// anchor position names its slot, the heap holds exactly the busy cores, and
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
					pos := int(b.hpos[anchorSlot])
					switch {
					case b.idle && pos != -1:
						t.Fatalf("op %d: idle core %d keeps slot %d", op, b.ID, pos)
					case !b.idle && (pos < 0 || pos >= len(h) || h[pos].c != b):
						t.Fatalf("op %d: busy core %d records slot %d, which does not hold it", op, b.ID, pos)
					case !b.idle:
						busyMin = min(busyMin, b.eff)
					}
				}
				if len(h) > 0 && h[0].key != busyMin {
					t.Fatalf("op %d: root advertises %v, minimum busy eff %v", op, h[0].key, busyMin)
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

// TestCoreHeapRandomOps drives one coreHeap per slot through random puts
// (inserts and key moves), removes and re-inits, with keys drawn from five
// values so most of them tie, against a sorted-slice oracle. After every
// operation each member's position must name its entry and key, every
// other core's must read -1, and the root must be the oracle's minimum:
// by (key, ID) for the run and stall heaps, by key alone for the anchor
// heap, which does not break ties.
func TestCoreHeapRandomOps(t *testing.T) {
	for _, slot := range []int{runSlot, anchorSlot, stallSlot} {
		t.Run(fmt.Sprintf("slot%d", slot), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(slot) + 1))
			cores := make([]Core, 40)
			for i := range cores {
				cores[i].ID = i
				cores[i].hpos = [3]int32{-1, -1, -1}
			}
			q := coreHeap{slot: slot, byID: slot != anchorSlot}
			var oracle []heapEntry // sorted by (key, ID)
			find := func(c *Core) int {
				return slices.IndexFunc(oracle, func(e heapEntry) bool { return e.c == c })
			}
			key := func() vtime.Time { return vtime.CyclesInt(rng.Int63n(5)) }
			for op := 0; op < 3000; op++ {
				c := &cores[rng.Intn(len(cores))]
				switch r := rng.Intn(100); {
				case r < 2:
					oracle = oracle[:0]
					for i := range cores {
						cores[i].hpos[slot] = -1
						if rng.Intn(2) == 0 {
							oracle = append(oracle, heapEntry{key(), &cores[i]})
						}
					}
					q.init(slices.Clone(oracle))
				case r < 35:
					if i := find(c); i >= 0 {
						q.remove(c)
						oracle = slices.Delete(oracle, i, i+1)
					}
				default:
					k := key()
					q.put(c, k)
					if i := find(c); i >= 0 {
						oracle[i].key = k
					} else {
						oracle = append(oracle, heapEntry{k, c})
					}
				}
				slices.SortFunc(oracle, func(a, b heapEntry) int {
					return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.c.ID, b.c.ID))
				})
				live := func(c *Core) vtime.Time {
					if i := find(c); i >= 0 {
						return oracle[i].key
					}
					return vtime.Inf // never drawn: a stray member fails the check
				}
				if err := q.check(live); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if len(q.heap) != len(oracle) {
					t.Fatalf("op %d: heap holds %d entries, oracle %d", op, len(q.heap), len(oracle))
				}
				for i := range cores {
					c := &cores[i]
					if pos := c.hpos[slot]; find(c) < 0 && pos != -1 {
						t.Fatalf("op %d: core %d is out but records position %d", op, c.ID, pos)
					}
				}
				if len(oracle) == 0 {
					continue
				}
				if root, want := q.heap[0], oracle[0]; root.key != want.key || (q.byID && root.c != want.c) {
					t.Fatalf("op %d: root is core %d at %v, oracle minimum core %d at %v", op, root.c.ID, root.key, want.c.ID, want.key)
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
