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
// a ring-layered BFS from the queried core, with two cutoffs: the exact
// minimum over all anchors (domain.effFloor — the busy cores sit in a
// min-heap by maintained eff, so it is the root) ends the search after a
// ring or two whenever the anchors are within a few delta of each other,
// and a per-anchor landmark-distance scan ends it when a distant laggard
// holds the floor down — asked only once the search has spent what the
// scan costs, so most machines never run it, nor build its tables.
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
// Scheduling. The indexed scheduler splits the stalled cores by what
// their horizons read. A stalled core with no idle same-domain neighbor
// depends only on busy neighbors' maintained times (every change posts a
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
		}
	}
}

// effLandmarks is the number of landmark cores whose BFS hop-distance
// tables back the triangle-inequality anchor bounds in lazyFix. Corners
// of a mesh (which farthest-point sampling finds) make the bound exact
// for Manhattan geometry; four cover the hierarchical chiplet fabrics
// well. Purely a pruning aid — never affects results.
const effLandmarks = 4

// buildLandmarks precomputes hop distances from deterministically chosen
// landmark cores (farthest-point sampling from core 0, ties to the lowest
// ID) to every core. |dist_l(a) − dist_l(b)| lower-bounds the hop
// distance between a and b for any landmark l, and hop distance in turn
// lower-bounds the idle-restricted path length the relay rule telescopes
// over — which is what lets the lazy BFS stop as soon as the best anchor
// found beats every other anchor's provable minimum contribution.
// O(landmarks · (cores + links)) over the immutable topology, run (through
// lmOnce) by the kernel's first landmark scan: on most machines, never.
func (k *Kernel) buildLandmarks() {
	n := len(k.cores)
	k.lmDist = make([][]int32, 0, effLandmarks)
	queue := make([]int32, 0, n)
	next := 0
	for len(k.lmDist) < effLandmarks {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[next] = 0
		queue = append(queue[:0], int32(next))
		for head := 0; head < len(queue); head++ {
			c := k.cores[queue[head]]
			for _, nbID := range c.neighbors {
				if dist[nbID] < 0 {
					dist[nbID] = dist[c.ID] + 1
					queue = append(queue, int32(nbID))
				}
			}
		}
		k.lmDist = append(k.lmDist, dist)
		// Farthest reached core (lowest ID on ties) seeds the next
		// landmark; on a mesh this walks the corners.
		far, farDist := 0, int32(0)
		for i, dv := range dist {
			if dv > farDist {
				far, farDist = i, dv
			}
		}
		next = far
	}
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
	if h := d.busyList.heap; len(h) > 0 && h[0].eff < d.frozenFloor {
		return h[0].eff
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
		flipped := c.busyPos < 0
		if !flipped && c.eff == c.vt {
			return
		}
		c.eff = c.vt
		d.busyList.put(c)
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
	if c.busyPos >= 0 {
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
// improve the result and the search stops. When the exact floor cannot
// decide — some anchor lags the nearest ones by more than the rings
// walked — the per-anchor landmark scan (anchorCanImprove) is asked, but
// only once the search has made, since the last scan, as many neighbour
// visits as a scan reads table entries (len(busyList) × effLandmarks): a
// search the floor or a few more rings end never scans, one that needs the
// landmark bound spends on scans at most what it spent walking. Both
// cutoffs only prune, so when they are asked never changes the result.
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
	visits, scanned := 0, 0 // neighbour visits made; of them, already paid for a scan
	ringStart, ringEnd := 0, 1
	for depth := 0; ringStart < ringEnd; depth++ {
		cost := satScale(delta, depth+1)
		if satAdd(floor, cost) >= best {
			break
		}
		if best < vtime.Inf && visits-scanned >= len(d.busyList.heap)*effLandmarks {
			if !d.anchorCanImprove(c, depth, best) {
				break
			}
			scanned = visits
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

// anchorCanImprove reports whether any frontier anchor could still beat
// best when the BFS is about to scan ring `depth`. Every anchor not yet
// credited sits at least depth+1 relay hops out — and at least its
// landmark distance bound (|dist_l(c) − dist_l(a)|, a hop-count lower
// bound by the triangle inequality, and idle-restricted paths are never
// shorter than unrestricted ones) — so its contribution is at least
// a.eff + max(bound, depth+1)·delta. Frozen cross-shard proxies are
// bounded by the barrier-exact frozenFloor at depth+1 hops. The
// per-anchor terms of anchors already credited to best understate their
// real contribution, which only makes the answer conservatively true —
// the cutoff can never prune a better anchor, so lazyFix stays exact.
//
// This is what ends a search around a core whose nearest anchors run far
// ahead of a distant laggard: the laggard holds the floor below best for
// as many rings as it lags, but prunes here by distance. lazyFix calls it
// once per len(busyList) × effLandmarks neighbour visits, the most a scan
// reads, so scanning at worst doubles a search's cost; the first call on
// a kernel builds the tables.
func (d *domain) anchorCanImprove(c *Core, depth int, best vtime.Time) bool {
	d.lmScans++
	d.lmCost += int64(len(d.busyList.heap) * effLandmarks)
	k := d.k
	near := satScale(k.relayDelta, depth+1)
	if satAdd(d.frozenFloor, near) < best {
		return true
	}
	k.lmOnce.Do(k.buildLandmarks)
	var dc [effLandmarks]int32 // the reader's own landmark distances
	for l, dist := range k.lmDist {
		dc[l] = dist[c.ID]
	}
	// Pre-order walk of the anchor heap without a stack. A subtree whose
	// root cannot beat best from depth+1 hops holds no anchor that can:
	// its members advertise no less and sit no nearer.
	h := d.busyList.heap
	for i := 0; ; {
		if i < len(h) && satAdd(h[i].eff, near) < best {
			hops := depth + 1
			for l, dist := range k.lmDist {
				da := dist[h[i].ID]
				if dc[l] < 0 || da < 0 {
					continue // disconnected from this landmark: no bound
				}
				if diff := int(dc[l] - da); diff > hops {
					hops = diff
				} else if -diff > hops {
					hops = -diff
				}
			}
			if satAdd(h[i].eff, satScale(k.relayDelta, hops)) < best {
				return true
			}
			i = 2*i + 1 // into the left subtree
			continue
		}
		for i > 0 && i%2 == 0 {
			i = (i - 1) / 2 // a right subtree is done: climb
		}
		if i == 0 {
			return false
		}
		i++ // on to the right sibling
	}
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

// coreHeap is an indexed binary min-heap over cores: less orders the
// members and pos names the Core field that records each member's slot
// (-1 while out), so membership is an O(1) test and re-seating a member
// whose key moved an O(log n) sift. A domain keeps two: the anchor heap
// (busyList: its busy cores by maintained eff, whose root is the exact
// anchor floor) and the stall heap (sq, below).
type coreHeap struct {
	heap []*Core
	less func(a, b *Core) bool
	pos  func(c *Core) *int
}

func anchorLess(a, b *Core) bool { return a.eff < b.eff }
func anchorPos(c *Core) *int     { return &c.busyPos }

// The stall heap is a domain's secondary scheduling heap: the stalled
// cores with at least one idle same-domain neighbor (current != nil &&
// idleNb > 0), ordered by (vt, ID). Their runnable keys — when runnable at
// all — equal their clocks, but runnability itself depends on lazily
// evaluated horizons, so membership means "idle-adjacent stalled", not
// "runnable"; pickCore evaluates the horizons of the members with
// vt ≤ limit on demand. The mid-step core is kept out (its clock is
// moving), so the order holds between a put and the next.
func stallLess(a, b *Core) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.ID < b.ID
}
func stallPos(c *Core) *int { return &c.stallPos }

func (q *coreHeap) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	*q.pos(h[i]) = i
	*q.pos(h[j]) = j
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

func (q *coreHeap) down(i int) {
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
			return
		}
		q.swap(i, s)
		i = s
	}
}

// put seats c by its current key: appended when out, then sifted either
// way from wherever it sits.
func (q *coreHeap) put(c *Core) {
	p := q.pos(c)
	if *p < 0 {
		*p = len(q.heap)
		q.heap = append(q.heap, c)
	}
	q.down(*p)
	q.up(*p)
}

func (q *coreHeap) remove(c *Core) {
	p := q.pos(c)
	i, last := *p, len(q.heap)-1
	if i != last {
		q.swap(i, last)
	}
	q.heap[last] = nil
	q.heap = q.heap[:last]
	*p = -1
	if i != last {
		q.down(i)
		q.up(i)
	}
}

// init makes members (any order, no duplicates) the heap's whole content;
// every other core's slot field must already read -1.
func (q *coreHeap) init(members []*Core) {
	q.heap = members
	for i, c := range members {
		*q.pos(c) = i
	}
	for i := len(members)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// check verifies slot back-pointers and heap order (Kernel.Validate).
func (q *coreHeap) check() error {
	for i, c := range q.heap {
		if got := *q.pos(c); got != i {
			return fmt.Errorf("core %d sits in slot %d, recorded %d", c.ID, i, got)
		}
		if i > 0 && q.less(c, q.heap[(i-1)/2]) {
			return fmt.Errorf("order violated at slot %d (core %d)", i, c.ID)
		}
	}
	return nil
}

// stallBest finds the best runnable stalled core with vt ≤ limit — the
// minimal (vt, ID) member whose lazily evaluated horizon has reached its
// clock — plus the count of runnable stalled cores within the limit (the
// §VIII sample share the runq cannot see). The walk visits only the heap
// subtrees whose root clock qualifies. A member found runnable records a
// sticky bit valid for the current shape epoch: anchor values are
// monotone between busy/idle flips, so its horizon can only keep rising
// above its frozen clock — the expensive region evaluation runs once,
// not once per pick (any input that could lower the horizon — the
// core's own clock, births, locks, a flip anywhere in the domain —
// clears the bit via schedUpdate or the epoch).
func (d *domain) stallBest(limit vtime.Time) (best *Core, count int) {
	q := d.sq
	if len(q.heap) == 0 {
		return nil, 0
	}
	var walk func(i int)
	walk = func(i int) {
		if i >= len(q.heap) {
			return
		}
		c := q.heap[i]
		if c.vt > limit {
			return
		}
		if c != d.stepping {
			runnable := c.rnStamp == d.shapeEpoch
			if !runnable && c.vt <= d.k.policy.Horizon(c) {
				runnable = true
				c.rnStamp = d.shapeEpoch
			}
			if runnable {
				count++
				if best == nil || stallLess(c, best) {
					best = c
				}
			}
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return best, count
}

// pickIndexed is pickCore's indexed decision: the best of the runq head
// (exact cached keys) and the best runnable idle-adjacent stalled core,
// with the scan's (key, ID) preference, plus the combined §VIII runnable
// count.
func (d *domain) pickIndexed(limit vtime.Time) (best *Core, key vtime.Time, count int) {
	rqBest, rqCount := d.rq.pick(limit)
	sBest, sCount := d.stallBest(limit)
	count = rqCount + sCount
	switch {
	case rqBest == nil:
		best = sBest
	case sBest == nil:
		best = rqBest
	default:
		// A stalled core's runnable key is its clock.
		if sBest.vt < rqBest.schedKey || (sBest.vt == rqBest.schedKey && sBest.ID < rqBest.ID) {
			best = sBest
		} else {
			best = rqBest
		}
	}
	if best == nil {
		return nil, 0, count
	}
	if best == sBest && best != rqBest {
		return best, best.vt, count
	}
	return best, best.schedKey, count
}

// rebuildLazyFromRefresh rebuilds the domain's bookkeeping after the
// barrier-time global relaxation (refreshEff) has left every Core.eff at
// the global fixpoint: the anchor heap and the frozen-proxy floor are
// recomputed, and every idle core's memo is seeded from its
// already-correct eff (the global fixpoint restricted to a domain equals
// the domain-local fixpoint anchored at the freshly frozen proxies).
func (d *domain) rebuildLazyFromRefresh() {
	k := d.k
	d.effInvalidate()
	// Refreshed frozen proxies can move horizons either way: drop the
	// sticky runnable bits along with the value memos.
	d.shapeEpoch++
	busy := d.busyList.heap[:0]
	d.frozenFloor = vtime.Inf
	for _, c := range d.cores {
		if c.idle {
			c.busyPos = -1
			c.effStamp = d.effEpoch
		} else {
			busy = append(busy, c)
		}
		for j, nbID := range c.neighbors {
			if k.cores[nbID].dom != d && c.nbEff[j] < d.frozenFloor {
				d.frozenFloor = c.nbEff[j]
			}
		}
	}
	d.busyList.init(busy)
}

// rebuildStallq reseats the domain's idle-adjacent stalled cores in the
// secondary heap; the counterpart of runq.rebuild for the stalled set.
// Stalled cores with no idle same-domain neighbor stay in the runq:
// every input of their horizons posts an invalidation (effSite's
// neighbor pass, the barrier rebuild, schedUpdate), so their cached keys
// are exact.
func (d *domain) rebuildStallq() {
	stalled := d.sq.heap[:0]
	for _, c := range d.cores {
		c.stallPos = -1
		if c.current != nil && c.idleNb > 0 {
			stalled = append(stalled, c)
		}
	}
	d.sq.init(stalled)
}

// rebuildIdleNb recounts every owned core's idle same-domain neighbors —
// the predicate routing stalled cores between the runq and the stall
// heap. Maintained incrementally by effSite's flip branches while
// running; recomputed here before the scheduling structures are rebuilt
// (engine start, restore). Kernels whose policy does not relay never
// count: their stalled cores read no shadow times, so all stay in the
// runq.
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
