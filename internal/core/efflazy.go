package core

import (
	"fmt"

	"simany/internal/vtime"
)

// Idle-region effective time.
//
// The paper's idle cores relay virtual time (§II.A "Non-connected sets of
// active cores"): an idle core advertises min(neighbor effective times)
// plus the policy's per-hop delta. Pushing every change through the
// surrounding idle region until a fixpoint would flood O(idle region)
// state per task completion; the machinery in this file *pulls* instead:
// idle cores' effective times are evaluated on demand from the busy
// frontier, so a completion touches O(degree + log busy) state and the
// region's cost is paid only by the (few) cores whose horizon actually
// reads a shadow time.
//
// Representation. There is no materialized region structure: an idle
// region is implicit — the connected set of idle cores reachable from a
// queried core without crossing a busy core or the domain boundary. Its
// effective times are fully determined by the region's *frontier
// anchors*: the maintained effective times of local busy cores and the
// frozen cross-shard proxies held by the region's cores. The unique
// fixpoint of the relay rule assigns an idle core c
//
//	eff(c) = min over anchors a of  anchor(a) + delta·(hops(c,a) + 1)
//
// where hops counts idle cores on a shortest path from c to a that stays
// inside the domain's idle cores. domain.lazyFix computes exactly that by
// a ring-layered BFS from the queried core, with one cutoff: the exact
// minimum over all anchors (domain.effFloor — the busy cores sit in a
// min-heap by maintained eff, so it is the root) ends the search after a
// ring or two whenever the anchors are within a few delta of each other.
// A distant laggard holds the floor down and lets the search run as many
// rings deep as it lags (docs/effective-time.md, "The late cohort").
//
// Memoization. Computed values are cached in Core.eff and stamped with
// the domain's invalidation epoch (Core.effStamp vs domain.effEpoch). The
// epoch advances whenever any anchor of the domain changes — a busy
// core's maintained eff moved, a core flipped busy/idle, or a barrier
// refreshed the frozen proxies — so a stale memo is never served. Epoch
// bumps are O(1); nothing is flooded.
//
// Determinism. The BFS computes the shortest-path minimum the relaxation
// converges to, so results do not depend on evaluation order.
// Kernel.Validate recomputes the fixpoint by plain relaxation and
// compares every fresh memo against it; the equivalence suite
// (equiv_test.go) runs that check at every scheduling decision and pins
// the pick sequences to a recording made with an eager propagation flood.
//
// Scheduling. The scheduler splits the stalled cores by what their
// horizons read. A stalled core with no idle same-domain neighbor depends
// only on busy neighbors' maintained times (every change posts a
// schedUpdate from effSite's O(degree) neighbor pass) and frozen
// cross-shard proxies, so it keeps an exact cached key in the runq. Only
// the stalled cores adjacent to an idle region — whose horizons read
// shadow times that post no callbacks — move to a secondary per-domain
// heap ordered by (vt, ID) (domain.sq); every pick evaluates those on
// demand, and a sticky per-shape-epoch runnable bit keeps a member once
// found runnable from being evaluated again.
// See docs/effective-time.md for the full design and cost model.

// IdleRelayPolicy is implemented by policies under which an idle core
// advertises "min over neighbor effective times, plus a constant delta"
// (Inf when no neighbor advertises a finite time). For such policies the
// kernel maintains effective times — busy cores' at their step
// boundaries, idle regions' on demand from the busy frontier. Policies
// that do not implement the interface (or return ok=false) never read
// effective times, and the kernel does not maintain any. Of the bundled
// policies only the paper's Spatial relays.
type IdleRelayPolicy interface {
	// IdleRelay returns the per-hop relay increment (Spatial.T), which
	// must be positive, and whether the policy relays at all.
	IdleRelay() (delta vtime.Time, ok bool)
}

// setupEff arms effective-time maintenance when the policy relays. A
// non-positive delta is rejected: the relay rule then has no unique
// fixpoint (idle cores could sustain each other's stale times), and a
// negative one hands out horizons behind the slowest neighbor.
func (k *Kernel) setupEff() {
	p, ok := k.policy.(IdleRelayPolicy)
	if !ok {
		return
	}
	if k.relayDelta, k.effLazy = p.IdleRelay(); !k.effLazy {
		return
	}
	if k.relayDelta <= 0 {
		panic(fmt.Sprintf("core: policy %q relays idle effective times with non-positive delta %v", k.policy.Name(), k.relayDelta))
	}
	if k.sharded {
		// Proxies for neighbors in other shards, frozen between barriers;
		// one flat array sliced per core. Same-shard neighbors are read
		// directly, so the sequential engine needs none.
		flat := make([]vtime.Time, k.topo.NumLinks())
		for i := range flat {
			flat[i] = vtime.Inf
		}
		off := 0
		for _, c := range k.cores {
			deg := len(c.neighbors)
			c.nbEff = flat[off : off+deg : off+deg]
			off += deg
			for j, nbID := range c.neighbors {
				if nb := k.cores[nbID]; nb.dom != c.dom {
					c.dom.border = append(c.dom.border, borderLink{proxy: &c.nbEff[j], from: nb})
				}
			}
		}
	}
}

// borderLink is one cross-shard link as its reading domain sees it: the
// proxy slot one of its cores holds, and the neighbor in another shard
// whose effective time the slot freezes. Each domain lists its links once
// (setupEff), so a barrier refreshes proxies over the shard border only.
type borderLink struct {
	proxy *vtime.Time
	from  *Core
}

// satScale multiplies a non-negative per-hop delta by a hop count,
// saturating at Inf.
func satScale(delta vtime.Time, hops int) vtime.Time {
	if delta > 0 && vtime.Time(hops) > vtime.Inf/delta {
		return vtime.Inf
	}
	return delta * vtime.Time(hops)
}

// satAdd adds a non-negative cost to a virtual time, saturating at Inf
// (vtime.Inf is MaxInt64, so plain addition would wrap).
func satAdd(t, cost vtime.Time) vtime.Time {
	if t >= vtime.Inf-cost {
		return vtime.Inf
	}
	return t + cost
}

// effInvalidate advances the domain's invalidation epoch, discarding
// every idle-core memo at O(1) cost. Called whenever an anchor changed:
// a busy core's maintained eff moved, a core flipped busy/idle, or the
// frozen proxies were refreshed at a barrier.
func (d *domain) effInvalidate() {
	d.effEpoch++
}

// effFloor is the exact lower bound on every anchor of the domain: the
// anchor heap's root (the minimal maintained eff over the busy cores) or
// the barrier-exact minimum over the frozen cross-shard proxies,
// whichever is lower. Inf when the domain has neither.
func (d *domain) effFloor() vtime.Time {
	if h := d.busyList.heap; len(h) > 0 && h[0].key < d.frozenFloor {
		return h[0].key
	}
	return d.frozenFloor
}

// effSite runs at both ends of domain.step, where c's clock and idle flag
// may have moved: it maintains the frontier anchors — c's own advertised
// time and its seat in the anchor heap — invalidates the memos when an
// anchor actually changed, and notifies the stalled same-domain neighbors
// whose horizons read c directly. O(degree + log busy), never O(region);
// the neighbor pass is what lets stalled cores with no idle neighbor keep
// exact runq keys (schedUpdate) instead of being re-evaluated at every
// pick. A no-op when the policy does not relay.
func (d *domain) effSite(c *Core) {
	k := d.k
	if !k.effLazy {
		return
	}
	if !c.idle {
		flipped := c.hpos[anchorSlot] < 0
		if !flipped && c.eff == c.vt {
			return
		}
		c.eff = c.vt
		d.busyList.put(c, c.eff)
		d.effInvalidate()
		if flipped {
			// Idle → busy: the core joins the frontier. Paths through it
			// are cut, so memos computed against the old region shape are
			// stale even when the advertised value happens to be unchanged
			// (the old value may itself have been a stale memo) — and
			// region horizons may move either way, so the shape epoch
			// drops every sticky runnable bit too.
			d.shapeEpoch++
		}
		for _, nbID := range c.neighbors {
			nb := k.cores[nbID]
			if nb.dom != d {
				continue
			}
			if flipped {
				nb.idleNb--
			}
			if nb.current != nil {
				d.schedUpdate(nb)
			}
		}
		return
	}
	// Busy → idle: the core stops being an anchor; its slot in the memo
	// space is stale until the next lazy read recomputes it. Stalled
	// neighbors gain an idle neighbor and are re-routed to the stall heap.
	if c.hpos[anchorSlot] >= 0 {
		d.busyList.remove(c)
		c.effStamp = 0
		d.effInvalidate()
		d.shapeEpoch++
		for _, nbID := range c.neighbors {
			nb := k.cores[nbID]
			if nb.dom != d {
				continue
			}
			nb.idleNb++
			if nb.current != nil {
				d.schedUpdate(nb)
			}
		}
	}
}

// lazyEff returns c's effective time: the core's maintained value while
// busy, the memoized (or freshly computed) region fixpoint while idle.
// With no local anchor (busy == 0), idle-only relay chains have no
// fixpoint and everyone advertises Inf.
func (d *domain) lazyEff(c *Core) vtime.Time {
	if !c.idle {
		return c.eff
	}
	if d.busy == 0 {
		return vtime.Inf
	}
	if c.effStamp == d.effEpoch {
		return c.eff
	}
	c.eff = d.lazyFix(c)
	c.effStamp = d.effEpoch
	return c.eff
}

// lazyFix computes the region fixpoint value for idle core c: a
// ring-layered BFS over the local idle cores around c, minimizing
// anchor + delta·(hops+1) over all frontier anchors (local busy cores
// and finite frozen cross-shard proxies). The ring index equals the hop
// count, so once best ≤ floor + delta·(ring+1) no farther anchor can
// improve the result and the search stops.
func (d *domain) lazyFix(c *Core) vtime.Time {
	k := d.k
	delta := k.relayDelta
	d.effGen++
	gen := d.effGen
	// The scratch ring buffer is domain-owned and reused across calls;
	// a cursor per ring keeps layers contiguous.
	q := append(d.effScratch[:0], c.ID)
	c.effSeen = gen
	best := vtime.Inf
	floor := d.effFloor()
	visits := 0
	ringStart, ringEnd := 0, 1
	for depth := 0; ringStart < ringEnd; depth++ {
		cost := satScale(delta, depth+1)
		if satAdd(floor, cost) >= best {
			break
		}
		for i := ringStart; i < ringEnd; i++ {
			cc := k.cores[q[i]]
			visits += len(cc.neighbors)
			for j, nbID := range cc.neighbors {
				nb := k.cores[nbID]
				if nb.dom != d {
					// Cross-shard frontier: the frozen proxy cc holds for
					// nb is an anchor at this depth.
					if p := cc.nbEff[j]; p != vtime.Inf {
						if v := satAdd(p, cost); v < best {
							best = v
						}
					}
					continue
				}
				if !nb.idle {
					// Local busy frontier: anchor at the maintained eff
					// (the value as of the core's last step boundary, not
					// the live clock).
					if v := satAdd(nb.eff, cost); v < best {
						best = v
					}
					continue
				}
				if nb.effSeen != gen {
					nb.effSeen = gen
					q = append(q, nbID)
				}
			}
		}
		ringStart, ringEnd = ringEnd, len(q)
	}
	d.effScratch = q[:0]
	d.effSearches++
	d.effVisits += int64(visits)
	return best
}

// minNeighborEff returns the minimum over c's neighbors of their
// effective times, Inf if it has none: busy local neighbors' maintained
// values, idle local neighbors pulled through the region fixpoint, and
// the proxies frozen at the last barrier for neighbors in other shards.
func (d *domain) minNeighborEff(c *Core) vtime.Time {
	k := d.k
	m := vtime.Inf
	for j, nbID := range c.neighbors {
		nb := k.cores[nbID]
		var e vtime.Time
		if nb.dom != d {
			e = c.nbEff[j] // frozen between barriers
		} else if !nb.idle {
			e = nb.eff
		} else {
			e = d.lazyEff(nb)
		}
		if e < m {
			m = e
		}
	}
	return m
}

// The kernel's indexed heaps, one position each in Core.hpos:
const (
	runSlot    = iota // domain.rq: runnable cores by (cached runnable key, ID)
	anchorSlot        // domain.busyList: busy cores by maintained eff
	stallSlot         // domain.sq: stall-routed cores by (vt, ID)
)

// heapEntry is one coreHeap member with the key it is ordered by, copied
// in at every put so a sift reads no Core field but the position (and the
// ID on a tie, when the heap breaks ties).
type heapEntry struct {
	key vtime.Time
	c   *Core
}

// coreHeap is an indexed binary min-heap over cores: each member records
// its position in c.hpos[slot] (-1 while out), so membership is an O(1)
// test and re-seating a member whose key moved an O(log n) sift. A domain
// keeps three: the runq (sched.go), the anchor heap (busyList, whose root
// is the exact anchor floor) and the stall heap (sq, below). byID breaks
// key ties by core ID — the scan's (key, ID) order, which the runq and
// the stall heap need for their picks. The anchor heap is only ever asked
// for its root's key, and skips the tie-break: on a machine of tied
// clocks it would make every sift walk the whole tied class.
//
// The stall heap is a domain's secondary scheduling heap: the stalled
// cores whose horizons no cached key can track (domain.stallRouted) — the
// idle-adjacent ones, and every one under a policy that is not
// shard-local — keyed by vt. Their runnable keys — when runnable at all —
// equal their clocks, but runnability itself depends on horizons
// evaluated at the pick, so membership means "stalled, evaluated on
// demand", not "runnable"; pickCore evaluates the horizons of the members
// with vt ≤ limit. The mid-step core is kept out (its clock is moving),
// so every key equals its clock between a put and the next.
type coreHeap struct {
	heap []heapEntry
	slot int
	byID bool
}

func (q *coreHeap) less(a, b heapEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return q.byID && a.c.ID < b.c.ID
}

func (q *coreHeap) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	h[i].c.hpos[q.slot] = int32(i)
	h[j].c.hpos[q.slot] = int32(j)
}

func (q *coreHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.heap[i], q.heap[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// down sifts the entry at i toward the leaves and returns where it stops.
func (q *coreHeap) down(i int) int {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.less(q.heap[l], q.heap[s]) {
			s = l
		}
		if r < n && q.less(q.heap[r], q.heap[s]) {
			s = r
		}
		if s == i {
			return i
		}
		q.swap(i, s)
		i = s
	}
}

// put seats c at key: appended when out, then sifted either way from
// wherever it sits.
func (q *coreHeap) put(c *Core, key vtime.Time) {
	i := int(c.hpos[q.slot])
	if i < 0 {
		i = len(q.heap)
		c.hpos[q.slot] = int32(i)
		q.heap = append(q.heap, heapEntry{key, c})
	} else {
		q.heap[i].key = key
	}
	q.up(q.down(i))
}

func (q *coreHeap) remove(c *Core) {
	i, last := int(c.hpos[q.slot]), len(q.heap)-1
	if i != last {
		q.swap(i, last)
	}
	q.heap[last] = heapEntry{}
	q.heap = q.heap[:last]
	c.hpos[q.slot] = -1
	if i != last {
		q.up(q.down(i))
	}
}

// init makes entries (any order, no duplicate cores) the heap's whole
// content; every other core's position must already read -1.
func (q *coreHeap) init(entries []heapEntry) {
	q.heap = entries
	for i, e := range entries {
		e.c.hpos[q.slot] = int32(i)
	}
	for i := len(entries)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// check verifies positions and heap order and, when live is given, that
// every entry's key is the one live reads from its core now
// (Kernel.Validate).
func (q *coreHeap) check(live func(*Core) vtime.Time) error {
	for i, e := range q.heap {
		if got := e.c.hpos[q.slot]; got != int32(i) {
			return fmt.Errorf("core %d sits in slot %d, recorded %d", e.c.ID, i, got)
		}
		if i > 0 && q.less(e, q.heap[(i-1)/2]) {
			return fmt.Errorf("order violated at slot %d (core %d)", i, e.c.ID)
		}
		if live != nil && live(e.c) != e.key {
			return fmt.Errorf("core %d sits at key %v, live key %v", e.c.ID, e.key, live(e.c))
		}
	}
	return nil
}

// stallBest finds the best runnable stalled core with vt ≤ limit — the
// minimal (vt, ID) member whose horizon has reached its clock — plus the
// count of runnable stalled cores within the limit (the §VIII sample
// share the runq cannot see). The walk visits only the heap subtrees
// whose root clock qualifies. Under a shard-local policy a member found
// runnable records a sticky bit valid for the current shape epoch: anchor
// values are monotone between busy/idle flips, so its horizon can only
// keep rising above its frozen clock — the expensive region evaluation
// runs once, not once per pick (any input that could lower the horizon —
// the core's own clock, births, locks, a flip anywhere in the domain —
// clears the bit via schedUpdate or the epoch). Other policies get no
// bit: their global horizons are not monotone and LaxP2P draws from the
// RNG on every evaluation, so each member is asked exactly once per pick,
// as a scan over every core would ask it. That equivalence needs the limit
// to be Inf, which holds because New refuses them more than one shard
// (Config.CheckShards).
func (d *domain) stallBest(limit vtime.Time) (best heapEntry, count int) {
	q := &d.sq
	if len(q.heap) == 0 {
		return best, 0
	}
	var walk func(i int)
	walk = func(i int) {
		if i >= len(q.heap) {
			return
		}
		e := q.heap[i]
		if e.key > limit {
			return
		}
		if c := e.c; c != d.stepping {
			runnable := c.rnStamp == d.shapeEpoch
			if !runnable && c.vt <= d.k.policy.Horizon(c) {
				runnable = true
				if d.k.localPolicy {
					c.rnStamp = d.shapeEpoch
				}
			}
			if runnable {
				count++
				if best.c == nil || q.less(e, best) {
					best = e
				}
			}
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return best, count
}

// pickIndexed is pickCore's decision: the best of the runq head (exact
// cached keys) and the best runnable stall-heap core (whose runnable key
// is its clock), with the scan's (key, ID) preference, plus the combined
// §VIII runnable count. A nil core when neither qualifies.
func (d *domain) pickIndexed(limit vtime.Time) (*Core, vtime.Time, int) {
	best, rqCount := d.rq.pick() // armed at limit (domain.setLimit)
	s, sCount := d.stallBest(limit)
	if s.c != nil && (best.c == nil || d.sq.less(s, best)) {
		best = s
	}
	return best.c, best.key, rqCount + sCount
}

// rebuildLazyFromRefresh rebuilds the domain's bookkeeping after the
// barrier-time global refresh (refreshEff) has left every Core.eff at the
// global fixpoint and frozen the border proxies and their floor: the
// anchor heap is recomputed, and every idle core's memo is seeded from its
// already-correct eff (the global fixpoint restricted to a domain equals
// the domain-local fixpoint anchored at the freshly frozen proxies).
func (d *domain) rebuildLazyFromRefresh() {
	d.effInvalidate()
	// Refreshed frozen proxies can move horizons either way: drop the
	// sticky runnable bits along with the value memos.
	d.shapeEpoch++
	busy := d.busyList.heap[:0]
	for _, c := range d.cores {
		c.hpos[anchorSlot] = -1
		if c.idle {
			c.effStamp = d.effEpoch
		} else {
			busy = append(busy, heapEntry{c.eff, c})
		}
	}
	d.busyList.init(busy)
}

// rebuildStallq reseats the domain's stall-routed cores in the secondary
// heap; the counterpart of runq.rebuild for the stalled set.
func (d *domain) rebuildStallq() {
	stalled := d.sq.heap[:0]
	for _, c := range d.cores {
		c.hpos[stallSlot] = -1
		if d.stallRouted(c) {
			stalled = append(stalled, heapEntry{c.vt, c})
		}
	}
	d.sq.init(stalled)
}

// rebuildIdleNb recounts every owned core's idle same-domain neighbors —
// the predicate routing stalled cores between the runq and the stall
// heap. Maintained incrementally by effSite's flip branches while
// running; recomputed here before the scheduling structures are rebuilt
// (engine start, restore). Kernels whose policy does not relay never
// count: their stalled cores read no shadow times.
func (d *domain) rebuildIdleNb() {
	k := d.k
	for _, c := range d.cores {
		n := int32(0)
		for _, nbID := range c.neighbors {
			nb := k.cores[nbID]
			if nb.dom == d && nb.idle {
				n++
			}
		}
		c.idleNb = n
	}
}
