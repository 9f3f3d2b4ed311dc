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

// TestCoreHeapRandomOps drives one heap per slot through random inserts,
// key moves, removes and re-inits, with keys drawn from five values so
// most of them tie, against a sorted-slice oracle. The heap is a runq, so
// inserts and removes also keep its runnable count against a limit in the
// middle of the key range. After every operation each member's position
// must name its entry and key, every other core's must read -1, the count
// must equal the oracle's, and the root must be the oracle's minimum: by
// (key, ID) for the run, stall and sticky heaps, by key alone for the
// anchor heap, which does not break ties.
func TestCoreHeapRandomOps(t *testing.T) {
	for _, slot := range []int{runSlot, anchorSlot, stallSlot, stickySlot} {
		t.Run(fmt.Sprintf("slot%d", slot), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(slot) + 1))
			cores := make([]Core, 40)
			for i := range cores {
				cores[i].ID = i
				cores[i].hpos = [4]int32{-1, -1, -1, -1}
			}
			q := runq{coreHeap: coreHeap{slot: slot, byID: slot != anchorSlot}, limit: vtime.CyclesInt(2)}
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
					q.arm(q.limit)
				case r < 35:
					if i := find(c); i >= 0 {
						q.remove(c)
						oracle = slices.Delete(oracle, i, i+1)
					}
				default:
					k := key()
					if i := find(c); i >= 0 {
						// A key move keeps no count (runq.update does), so
						// recount.
						q.put(c, k)
						q.arm(q.limit)
						oracle[i].key = k
					} else {
						q.add(c, k)
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
				within := 0
				for _, e := range oracle {
					within += q.in(e.key)
				}
				if q.within != within {
					t.Fatalf("op %d: runnable count %d, oracle %d", op, q.within, within)
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
		for j, nbID := range k.neighbors(c) {
			if k.cores[nbID].dom != d {
				k.nbEff[int(c.links[0])+j] = v
				d.frozenFloor = v
				d.effInvalidate()
				return
			}
		}
	}
	t.Fatal("shard has no foreign neighbor")
}

// TestFlipDemotesOnlyPastTheBound flips core 5 of a 16-core line (T =
// delta = 100 cycles) through domain.step, with an injected task, and
// checks which sticky members flipDemote returns to the stall heap. Two
// members hang off idle core 8, on ring 3 of the flip: core 9 on the line
// and core 16, off it, with an idle tail 17–19. The bound there is
// seed + T + 3·delta: seed is the task's starting clock for an idle → busy
// flip, and the floor plus delta for a busy → idle one (the task ends),
// whose floor is an anchor at core 4 that core 5 shut off while busy.
// Core 16 sits exactly on the bound and is still runnable (core 8 now
// relays exactly its clock − T): it must stay sticky. Core 9 sits one
// delta past it and must return to the stall heap. The ring walk's
// neighbour visits are pinned: it stops at the ring whose bound reaches
// the largest sticky clock.
//
// Core 16 is then asked again after the idle → busy flip. With core 8's
// exact value memoized its horizon equals its clock, and the decision
// search from core 17 stops at the threshold after 4 neighbour visits,
// leaving no memo behind.
func TestFlipDemotesOnlyPastTheBound(t *testing.T) {
	const delta = 100
	cy := vtime.CyclesInt
	lat, bw := topology.DefaultLatency, topology.DefaultBandwidth
	var edges []topology.Edge
	for i := 0; i < 15; i++ {
		edges = append(edges, topology.Edge{A: i, B: i + 1, Lat: lat, BW: bw})
	}
	for _, e := range [][2]int{{8, 16}, {16, 17}, {17, 18}, {18, 19}} {
		edges = append(edges, topology.Edge{A: e[0], B: e[1], Lat: lat, BW: bw})
	}
	for _, tc := range []struct {
		name       string
		busy       bool  // idle → busy flip; busy → idle otherwise
		flipVisits int64 // of the flip's ring walk
	}{
		{"idle-busy", true, 15},
		{"busy-idle", false, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(Config{Topo: topology.FromEdges(20, "line+tail", edges), Policy: Spatial{T: cy(delta)}, Seed: 1})
			t.Cleanup(func() { k.stopWorkers(true) })
			d, b, past, on := k.domains[0], k.cores[5], k.cores[9], k.cores[16]
			seed := cy(1000) // the idle → busy anchor; the floor of the busy → idle one
			if !tc.busy {
				setBusy(k.cores[4], seed)
				seed += cy(delta)
			}
			bound := seed + cy(delta)*4
			start := seed // the flip task's first clock
			if !tc.busy {
				start = bound + cy(delta) // shuts core 4 off until it ends
			}
			k.InjectTask(b.ID, "flip", func(e *Env) { e.Yield() }, nil, start-taskStartCost)
			if !tc.busy {
				d.step(b) // idle → busy at start, then stalled
			}
			setStalled(k, past, bound+cy(delta))
			setStalled(k, on, bound)
			d.pickIndexed(vtime.Inf)
			if past.hpos[stickySlot] < 0 || on.hpos[stickySlot] < 0 {
				t.Fatalf("members at %v and %v not both found runnable before the flip", past.vt, on.vt)
			}
			walked := d.flipVisits
			d.step(b) // starts the task (idle → busy) or ends it (busy → idle)
			if b.idle == tc.busy || (tc.busy && b.vt != seed) {
				t.Fatalf("core 5 idle %v at %v after its step", b.idle, b.vt)
			}
			if on.hpos[stickySlot] < 0 || past.hpos[stallSlot] < 0 {
				t.Fatalf("member on the bound sticky %v, member past it in the stall heap %v; want both", on.hpos[stickySlot] >= 0, past.hpos[stallSlot] >= 0)
			}
			if got := d.flipVisits - walked; got != tc.flipVisits {
				t.Errorf("flip walk made %d neighbour visits, want %d", got, tc.flipVisits)
			}
			if err := k.Validate(); err != nil {
				t.Fatal(err)
			}
			if !tc.busy {
				return
			}
			d.effInvalidate() // drop the memos Validate's horizons wrote
			if e := k.cores[8].Eff(); e != bound-cy(delta) {
				t.Fatalf("core 8 relays %v, want %v", e, bound-cy(delta))
			}
			d.schedUpdate(on)
			before := d.effVisits
			d.pickIndexed(vtime.Inf)
			if on.hpos[stickySlot] < 0 {
				t.Fatal("member whose horizon equals its clock not found runnable")
			}
			if got := d.effVisits - before; got != 4 {
				t.Errorf("decisions made %d neighbour visits, want 4", got)
			}
			if c := k.cores[17]; c.effStamp == d.effEpoch {
				t.Errorf("decision search memoized core 17 at %v", c.eff)
			}
			if err := k.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecisionStopsBelowItsThreshold asks the stall heap about a member
// that is not runnable, on a 16×16 mesh (T = delta = 100 cycles) whose
// floor lags: core 0 is busy at 0, shut off by busy cores 1 and 16. An
// anchor at (8,5), busy at 500 cycles, puts the member's neighbour (8,7)
// at 700, below its threshold of 1900. The decision search from (8,7)
// finds that anchor on its second ring and stops there, after 16
// neighbour visits, leaving no memo; the exact search would run on until
// the lagging floor reaches 700. An exact read of (8,7) then ends on
// exactly that tie, floor + cost = best, and must memoize its value.
func TestDecisionStopsBelowItsThreshold(t *testing.T) {
	cy := vtime.CyclesInt
	k := New(Config{Topo: topology.Mesh2D(16, 16, topology.DefaultLatency, topology.DefaultBandwidth), Policy: Spatial{T: cy(100)}, Seed: 1})
	d := k.domains[0]
	setBusy(k.cores[0], 0)
	setBusy(k.cores[1], cy(100_000))
	setBusy(k.cores[16], cy(100_000))
	setBusy(k.cores[5*16+8], cy(500))
	m, nb := k.cores[8*16+8], k.cores[7*16+8]
	setStalled(k, m, cy(2000))
	d.effInvalidate() // drop the memos the set-up's horizons wrote
	before := d.effVisits
	d.pickIndexed(vtime.Inf)
	if m.hpos[stallSlot] < 0 {
		t.Fatal("member with a neighbour below its threshold found runnable")
	}
	if got := d.effVisits - before; got != 16 {
		t.Errorf("decision made %d neighbour visits, want 16", got)
	}
	if nb.effStamp == d.effEpoch {
		t.Errorf("decision search memoized core %d at %v", nb.ID, nb.eff)
	}
	if e := nb.Eff(); e != cy(700) || nb.effStamp != d.effEpoch {
		t.Errorf("exact read of core %d: %v, memoized %v; want 700cy memoized", nb.ID, e, nb.effStamp == d.effEpoch)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

// effCounts is the sum over a kernel's domains of the test-read search
// counters: region searches (lazyFix calls), the neighbour visits they
// made, the neighbour visits of flipDemote's ring walks, the stall-heap
// members the picks visited (stallBest) and the sticky members the flips
// demoted.
type effCounts struct{ searches, visits, flipVisits, stallVisits, stallDemoted int64 }

func countEff(k *Kernel) (n effCounts) {
	for _, d := range k.domains {
		n.searches += d.effSearches
		n.visits += d.effVisits
		n.flipVisits += d.flipVisits
		n.stallVisits += d.stallVisits
		n.stallDemoted += d.stallDemoted
	}
	return n
}

// sparseVisitsCeiling pins the mean neighbour visits per region search on
// TestSparseReadsNeverScan's workload, the flip walks' visits included
// (measured 3.38 / 3.24 / 3.32 on the 1k / 10k / 100k machines, of which
// the walks make 0.04 to 0.06; the benchmark's sparse-100k reads 3.25).
// Most searches are a stalled core's decision, which stops within a ring or
// two of either threshold. A floor or a threshold that stops deciding shows
// here as a count, on any host.
const sparseVisitsCeiling = 4

// TestSparseReadsNeverScan is the benchmark's sparse-100k shape on
// machines from 1k to 100k cores: 64 strided tasks of 100 equal slices,
// never synchronised by a message. Their anchors stay within a few T of
// each other, so the exact floor, or a decision's threshold, ends every
// region search within a few rings: a search must stay a few neighbour
// visits long however large the idle region around it, so the
// per-completion cost of a sparse machine does not grow with the machine.
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
			if n.searches == 0 || n.visits+n.flipVisits > sparseVisitsCeiling*n.searches {
				t.Errorf("%d + %d neighbour visits in %d region searches and flip walks, ceiling %d per search", n.visits, n.flipVisits, n.searches, sparseVisitsCeiling)
			}
			t.Logf("%d searches, %d visits (%.2f per search), %d flip-walk visits", n.searches, n.visits, float64(n.visits)/float64(n.searches), n.flipVisits)
		})
	}
}

// pendingVisitsCeiling pins the mean stall-heap members one pick visits on
// TestStallPickVisitsOnlyPending's workload, not counting the members the
// flips return to the stall heap: measured 0.97 on the 10k and
// 100k machines at 64 and 256 tasks (the core that just stepped, asked
// once), 2.56 and 3.13 on the 1k machine at 16 and 64 tasks, whose tasks
// sit close enough to hold one another back, so a core ahead stays stalled
// and is asked again at every pick. A pick that walked every
// idle-adjacent stalled core would make about one visit per task.
const pendingVisitsCeiling = 4

// TestStallPickVisitsOnlyPending is TestSparseReadsNeverScan's shape at
// two task counts per machine: nearly every busy core sits stalled beside
// an idle region and is runnable, so a pick that walked every stall-routed
// core would visit about one member per task. Members found runnable wait
// in the sticky heap instead, so the visits per pick must stay under a
// small constant, the same for four times the tasks and for every machine
// size. A busy/idle flip returns to the stall heap only the members its
// ring walk finds past the bound (flipDemote), so the demotions over the
// run must stay within one per task (measured 9 and 57 on the 1k machine at
// 16 and 64 tasks, none on the 10k and 100k machines).
func TestStallPickVisitsOnlyPending(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		tasks      []int
	}{
		{"1k", "chiplet:8x8,4x4", []int{16, 64}},
		{"10k", "chiplet:8x8,4x4,3x3", []int{64, 256}},
		{"100k", "chiplet:8x8,4x4,10x10", []int{64, 256}},
	} {
		for _, tasks := range tc.tasks {
			t.Run(fmt.Sprintf("%s/tasks%d", tc.name, tasks), func(t *testing.T) {
				if tc.name == "100k" && testing.Short() {
					t.Skip("100k-core machine build in -short mode")
				}
				topo, err := topology.ParseSpec(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 42})
				const slices = 100
				stride := topo.N() / tasks
				for i := 0; i < tasks; i++ {
					k.InjectTask(i*stride, "w", func(e *Env) {
						for s := 0; s < slices; s++ {
							e.ComputeCycles(100)
						}
					}, nil, 0)
				}
				res, err := k.Run()
				if err != nil {
					t.Fatal(err)
				}
				n := countEff(k)
				pending := n.stallVisits - n.stallDemoted
				perPick := float64(pending) / float64(res.Steps)
				if pending <= 0 || perPick > pendingVisitsCeiling {
					t.Errorf("%d pending stall-heap visits in %d picks (%.2f per pick), ceiling %d per pick", pending, res.Steps, perPick, pendingVisitsCeiling)
				}
				if n.stallDemoted > int64(tasks) {
					t.Errorf("%d sticky members demoted, bound one per task = %d", n.stallDemoted, tasks)
				}
				t.Logf("%d picks: %d stall-heap visits (%.2f per pick), %d of them demoted members, %.2f pending per pick, %d flip-walk visits", res.Steps, n.stallVisits, float64(n.stallVisits)/float64(res.Steps), n.stallDemoted, perPick, n.flipVisits)
			})
		}
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
// an exact search runs over a hundred rings deep before the floor ends it.
// The cohort's uneven closing blocks then spread it over a few T, so shards
// read one another's frozen proxies too. Results are pinned (recorded
// while a linear scan was checked to schedule them identically), and
// Kernel.Validate must hold at sampled picks, on the sequential engine and
// on 16 shards, within the wall budget.
//
// The neighbour visits, region searches and flip walks together, must stay
// under a ceiling per run: measured 50 833 827 sequentially (44 490 481 in
// searches, the rest in the walks, whose bound starts at the lagging floor)
// and 58 666 on 16 shards. A decision about a cohort core that is not
// runnable stops at its threshold within a ring or two; one about a
// runnable core still runs until the lagging floor reaches its threshold,
// and those make most of the sequential run's search visits.
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
		visits int64 // ceiling
		want   string
	}{
		{1, 55_000_000, "{FinalVT:15820cy Steps:775 Messages:0 Hops:0 Bytes:0 OutOfOrder:0 Handled:0 Stalls:575 Instructions:0 AvgRunnable:153.25806451612902 MaxRunnable:200 Shards:1 PerShard:[{Cores:102400 Steps:775 Util:1}]}"},
		{16, 65_000, "{FinalVT:15820cy Steps:874 Messages:0 Hops:0 Bytes:0 OutOfOrder:0 Handled:0 Stalls:674 Instructions:0 AvgRunnable:5.91533180778032 MaxRunnable:14 Shards:16 PerShard:[" +
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
		if n.visits+n.flipVisits > tc.visits {
			t.Errorf("shards=%d: %d + %d neighbour visits in region searches and flip walks, ceiling %d", tc.shards, n.visits, n.flipVisits, tc.visits)
		}
		t.Logf("shards=%d: %d steps, %d searches, %d visits, %d flip-walk visits", tc.shards, res.Steps, n.searches, n.visits, n.flipVisits)
	}
	if wall := time.Since(start); wall > lateCohortBudget {
		t.Errorf("late-cohort runs took %v, budget %v", wall, lateCohortBudget)
	}
}
