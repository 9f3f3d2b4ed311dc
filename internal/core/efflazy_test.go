package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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
// counters: region searches (lazyFix calls), the neighbour visits they
// made, landmark scans, and the table reads those scans were charged.
type effCounts struct{ searches, visits, scans, scanCost int64 }

func countEff(k *Kernel) (n effCounts) {
	for _, d := range k.domains {
		n.searches += d.effSearches
		n.visits += d.effVisits
		n.scans += d.lmScans
		n.scanCost += d.lmCost
	}
	return n
}

// sparseVisitsCeiling pins the mean neighbour visits of one region search
// on TestSparseReadsNeverScan's workload (measured 9.27; the benchmark's
// sparse-100k reads 10.7). A floor that stops deciding, or a scan rule that
// lets searches run on, shows here as a count, on any host.
const sparseVisitsCeiling = 12

// TestSparseReadsNeverScan is the benchmark's sparse-100k shape on the
// 9216-core machine: 64 strided tasks of 100 equal slices, never
// synchronised by a message. Their anchors stay within a few T of each
// other, so the exact floor ends every region search within a few rings —
// long before the search has spent what a landmark scan costs. The scan
// must therefore never run, the landmark tables it reads must never be
// built, and a search must stay about ten neighbour visits long.
func TestSparseReadsNeverScan(t *testing.T) {
	topo, err := topology.ParseSpec("chiplet:8x8,4x4,3x3")
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
	if n.scans != 0 || k.lmDist != nil {
		t.Errorf("%d landmark scans, tables built: %v; want none", n.scans, k.lmDist != nil)
	}
	if n.searches == 0 || n.visits > sparseVisitsCeiling*n.searches {
		t.Errorf("%d neighbour visits in %d region searches, ceiling %d per search", n.visits, n.searches, sparseVisitsCeiling)
	}
	t.Logf("%d searches, %d visits (%.2f per search), %d scans", n.searches, n.visits, float64(n.visits)/float64(n.searches), n.scans)
}

// TestLandmarkScanMatchesLinearScan holds anchorCanImprove's pruned walk of
// the anchor heap to the plain rule it implements — some anchor a has
// a.eff + max(landmark bound, depth+1)·T < best — on randomized anchor
// sets, readers, depths and bests. The four shards ask from four
// goroutines at once, so the first scans race for the one lazy build of
// the landmark tables (under the race detector in CI).
func TestLandmarkScanMatchesLinearScan(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(256), Policy: Spatial{T: DefaultT}, Seed: 1, Shards: 4})
	if k.lmDist != nil {
		t.Fatal("landmark tables built before any scan")
	}
	var wg sync.WaitGroup
	for i, d := range k.domains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for round := 0; round < 200; round++ {
				c := d.cores[rng.Intn(len(d.cores))]
				if c.idle && rng.Intn(4) > 0 {
					setBusy(c, vtime.CyclesInt(rng.Int63n(3000)))
				} else if !c.idle {
					setIdle(c)
				}
				reader := d.cores[rng.Intn(len(d.cores))]
				depth := rng.Intn(12)
				best := vtime.CyclesInt(rng.Int63n(4000))
				// Asked first: the call is what orders this goroutine after
				// the table build.
				got, want := d.anchorCanImprove(reader, depth, best), false
				for _, a := range d.busyList.heap {
					hops := depth + 1
					for _, dist := range k.lmDist {
						if diff := int(dist[reader.ID] - dist[a.ID]); diff > hops {
							hops = diff
						} else if -diff > hops {
							hops = -diff
						}
					}
					want = want || a.eff+k.relayDelta*vtime.Time(hops) < best
				}
				if got != want {
					t.Errorf("shard %d round %d: anchorCanImprove(core %d, depth %d, best %v) = %v over %d anchors, linear scan says %v",
						i, round, reader.ID, depth, best, got, len(d.busyList.heap), want)
				}
			}
		}()
	}
	wg.Wait()
	if len(k.lmDist) != effLandmarks {
		t.Fatalf("%d landmark tables after the scans, want %d", len(k.lmDist), effLandmarks)
	}
}

// lateCohortBudget bounds the whole late-cohort test (four runs on the
// 102400-core machine, two of them through the O(machine)-per-pick scan);
// the same figure as TestScale100kSparse's budget for one run.
const lateCohortBudget = 90 * time.Second

// TestLateCohortReachesLandmarkScan is the workload the landmark scan
// exists for. On the benchmark workloads the anchors stay within a few T
// of each other and the scan only ever confirms what a ring or two more
// would have found; here it is what ends the search. On the 102400-core
// chiplet machine 199 strided tasks open with one long native block, which
// puts them 150 T ahead of the one fine-grained task that starts beside
// them at 0. That task is the floor, and it lags the cohort by far more
// than a few rings' worth of T: around every cohort core the floor cutoff
// alone would let the search run over a hundred rings deep, and only the
// per-anchor landmark bound — for most of the cohort the laggard is more
// hops away than it lags — ends it early (with the scan switched off this
// test takes 9 s, not 3.6). The cohort's uneven closing blocks then spread
// it over a few T, which is what a shard needs to reach the scan: the
// round quantum keeps anything farther ahead from being read at all. The
// scan must be seen to run, results must not depend on which scheduler
// reads the values (indexed queues vs the scan seam), and Kernel.Validate
// must hold at sampled picks, on the sequential engine and on 16 shards.
func TestLateCohortReachesLandmarkScan(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core machine build in -short mode")
	}
	topo, err := topology.ParseSpec("chiplet:8x8,4x4,10x10")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	run := func(shards int, scan bool) (Result, effCounts) {
		k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 7, Shards: shards, Workers: 1})
		if scan {
			useScan(k)
		} else {
			// The scan reads the same memos, so validating them here is
			// enough; and only while most of the cohort is still busy — once
			// the anchors thin out, Validate's own relaxation sweeps the
			// machine hundreds of times per call.
			picks := 0
			k.onPick = func(*Core, vtime.Time) {
				if picks++; picks%150 == 0 && picks <= 600 {
					if err := k.Validate(); err != nil {
						panic(fmt.Sprintf("pick %d: %v", picks, err))
					}
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
		return res, countEff(k)
	}
	for _, shards := range []int{1, 16} {
		indexed, n := run(shards, false)
		scanned, _ := run(shards, true)
		if !reflect.DeepEqual(indexed, scanned) {
			t.Errorf("shards=%d: Result differs between the indexed queues and the scan:\n  index %+v\n  scan  %+v", shards, indexed, scanned)
		}
		if n.scans == 0 {
			t.Errorf("shards=%d: the landmark scan never ran", shards)
		}
		// A scan runs only after its search has made as many neighbour
		// visits as the scan reads table entries, so scanning can at most
		// double what the searches cost.
		if n.scanCost > n.visits {
			t.Errorf("shards=%d: scans were charged %d table reads, the searches made only %d neighbour visits", shards, n.scanCost, n.visits)
		}
		t.Logf("shards=%d: %d steps, %d searches, %d visits, %d landmark scans charged %d", shards, indexed.Steps, n.searches, n.visits, n.scans, n.scanCost)
	}
	if wall := time.Since(start); wall > lateCohortBudget {
		t.Errorf("late-cohort runs took %v, budget %v", wall, lateCohortBudget)
	}
}
