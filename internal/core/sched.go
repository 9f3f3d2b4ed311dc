package core

import (
	"fmt"

	"simany/internal/vtime"
)

// The indexed scheduler.
//
// The reference kernel picks the next core by scanning every core of the
// domain on every scheduling step (scanRunnable): O(cores) per step, the
// dominant cost at the 1024-core scale the paper targets. The structures
// in this file replace that scan with an indexed runnable queue — a binary
// min-heap keyed by (virtual-time key, core ID) — so picking becomes an
// O(1) peek and repositioning a core after a step an O(log n) sift.
//
// The heap is maintained incrementally: every site that can change a
// core's runnability or its key posts an update to the owning domain's
// queue (domain.schedUpdate). The full list of invalidation sites, and the
// argument for why they are exhaustive, is in docs/scheduler.md; in short,
// a core's runnable key depends on
//
//   - its task queues (conts/ready) — mutated by PlaceTask, Unblock and
//     the queue pops in domain.step;
//   - its clock, idle flag and current task — mutated only inside
//     domain.step (the post-step update covers them);
//   - for a core stalled mid-task, the policy horizon — which for a
//     cacheable-horizon policy (CacheableHorizonPolicy) is a pure function
//     of its neighbors' effective times (effSite / refreshEff), its birth
//     stamps (RegisterBirth / clearBirth) and its lock depth (mutated only
//     by the core's own running task).
//
// Policies whose horizons read global machine state or have side effects
// (the drift-comparison schemes draw referee RNGs and record probe
// histograms per evaluation) cannot be indexed without changing observable
// behavior; kernels running them schedule through the scan. The heap
// orders by the exact (key, core ID) pair the scan minimizes, and the
// equivalence suite (equiv_test.go) holds both to the same recorded pick
// sequences.

// CacheableHorizonPolicy is implemented by policies whose Horizon is a
// pure function of the kernel-tracked inputs the indexed scheduler
// invalidates on — the core's neighbor effective-time proxies, its
// outstanding birth stamps and its lock depth — with no side effects (no
// RNG draws, no metric probes) and no reads of other global machine
// state. Only such horizons may be re-evaluated on invalidation instead
// of at every scheduling decision; a policy that does not implement the
// interface (or returns false) schedules through the scan, which
// evaluates Horizon for every stalled core at every pick exactly as the
// original kernel did.
type CacheableHorizonPolicy interface {
	HorizonCacheable() bool
}

// runq is a domain's indexed runnable queue: a binary min-heap over the
// domain's cores ordered by (schedKey, core ID), mirroring exactly the
// (key, ID) minimization of the reference scan. A core is in the heap if
// and only if the last schedUpdate found it runnable; its position is
// kept in Core.schedPos so membership tests and repositioning are O(1)
// and O(log n).
type runq struct {
	d    *domain
	heap []*Core
}

func newRunq(d *domain) *runq {
	return &runq{d: d, heap: make([]*Core, 0, len(d.cores))}
}

// less is the scheduling order: virtual-time key first, core ID as the
// deterministic tie-break — identical to the reference scan's preference.
func schedLess(a, b *Core) bool {
	if a.schedKey != b.schedKey {
		return a.schedKey < b.schedKey
	}
	return a.ID < b.ID
}

func (q *runq) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	h[i].schedPos = i
	h[j].schedPos = j
}

func (q *runq) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !schedLess(q.heap[i], q.heap[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

func (q *runq) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && schedLess(q.heap[l], q.heap[s]) {
			s = l
		}
		if r < n && schedLess(q.heap[r], q.heap[s]) {
			s = r
		}
		if s == i {
			return
		}
		q.swap(i, s)
		i = s
	}
}

func (q *runq) insert(c *Core) {
	c.schedPos = len(q.heap)
	q.heap = append(q.heap, c)
	q.up(c.schedPos)
}

func (q *runq) remove(c *Core) {
	i := c.schedPos
	last := len(q.heap) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap[last] = nil
	q.heap = q.heap[:last]
	c.schedPos = -1
	if i != last {
		q.down(i)
		q.up(i)
	}
}

// peek returns the runnable core with the minimal (key, ID), nil when the
// queue is empty.
func (q *runq) peek() *Core {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// update re-evaluates c's runnability and repositions it: insert when it
// became runnable, remove when it stopped being runnable, sift when its
// key moved. Calling it redundantly is cheap and harmless, so invalidation
// sites do not need to prove the value actually changed.
func (q *runq) update(c *Core) {
	key, ok := q.d.runnable(c)
	if !ok {
		if c.schedPos >= 0 {
			q.remove(c)
		}
		return
	}
	if c.schedPos < 0 {
		c.schedKey = key
		q.insert(c)
		return
	}
	if key == c.schedKey {
		return
	}
	c.schedKey = key
	q.down(c.schedPos)
	q.up(c.schedPos)
}

// rebuild recomputes the queue from scratch — membership, keys and heap
// order — in O(cores). Run() calls it once per engine start; everything
// after that is incremental. The idle-adjacent stalled cores belong to
// the secondary heap (rebuilt separately) and are excluded here.
func (q *runq) rebuild() {
	q.heap = q.heap[:0]
	for _, c := range q.d.cores {
		c.schedPos = -1
	}
	for _, c := range q.d.cores {
		if c.current != nil && c.idleNb > 0 {
			continue
		}
		if key, ok := q.d.runnable(c); ok {
			c.schedKey = key
			c.schedPos = len(q.heap)
			q.heap = append(q.heap, c)
		}
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// countAtMost counts the queued cores with key ≤ limit — the §VIII
// runnable-cores sample the reference scan tallied on every pick. The
// whole queue qualifies when limit is Inf (the sequential engine); under
// a shard round limit the count is collected by walking only the heap
// subtrees whose root qualifies (a node's descendants all carry keys ≥
// its own), so the cost is proportional to the sample value itself, never
// to the machine size.
func (q *runq) countAtMost(limit vtime.Time) int {
	if limit == vtime.Inf {
		return len(q.heap)
	}
	n := 0
	var walk func(i int)
	walk = func(i int) {
		if i >= len(q.heap) || q.heap[i].schedKey > limit {
			return
		}
		n++
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return n
}

// pick returns the scan-equivalent scheduling decision: the minimal-key
// core within limit and the number of runnable cores within limit (0, nil
// when none qualifies).
func (q *runq) pick(limit vtime.Time) (*Core, int) {
	best := q.peek()
	if best == nil || best.schedKey > limit {
		return nil, 0
	}
	return best, q.countAtMost(limit)
}

// schedUpdate posts an incremental runnability update for c to its
// domain's index. It is a no-op on domains scheduling through the scan.
// Calls for a core that is mid-step observe a transient state; the
// post-step update in domain.step settles it before the queue is next
// read (the domain only consults the queue between steps).
//
// A stalled core with an idle same-domain neighbor is routed to the
// secondary (vt, ID) heap instead: its horizon reads lazily evaluated
// shadow times that post no invalidation callbacks, so no cached key
// could be kept honest — pickCore evaluates it on demand (efflazy.go).
// Stalled cores without idle neighbors keep exact runq keys: their
// horizons read only busy neighbors' maintained times (effSite notifies
// on every change) and frozen cross-shard proxies (refreshed under a
// full rebuild).
func (d *domain) schedUpdate(c *Core) {
	if d.rq == nil {
		return
	}
	// Every non-eff horizon input (clock, births, locks) funnels its
	// mutations through here, so dropping the sticky runnable bit on each
	// update is exactly the invalidation its contract needs.
	c.rnStamp = 0
	if c.current != nil && c.idleNb > 0 {
		// The mid-step core stays out of the stall heap (its clock is
		// moving); the post-step update re-seats it.
		if c != d.stepping {
			d.sq.put(c)
		}
		if c.schedPos >= 0 {
			d.rq.remove(c)
		}
		return
	}
	if c.stallPos >= 0 {
		d.sq.remove(c)
	}
	d.rq.update(c)
}

// checkRunq verifies the structural invariants of the index — position
// back-pointers, heap order, and membership/key agreement with the
// reference runnable computation. The core currently mid-step (if any) is
// exempt from the membership check: its entry is refreshed when the step
// completes, before the queue is consulted again. Used by Kernel.Validate.
func (d *domain) checkRunq() error {
	q := d.rq
	if q == nil {
		return nil
	}
	for i, c := range q.heap {
		if c.schedPos != i {
			return fmt.Errorf("domain %d: core %d heap position %d, recorded %d", d.id, c.ID, i, c.schedPos)
		}
		if i > 0 && schedLess(c, q.heap[(i-1)/2]) {
			return fmt.Errorf("domain %d: heap order violated at index %d (core %d)", d.id, i, c.ID)
		}
	}
	if err := d.sq.check(); err != nil {
		return fmt.Errorf("domain %d: stall heap: %w", d.id, err)
	}
	if c := d.stepping; c != nil && c.stallPos >= 0 {
		// The mid-step core's clock is in flux, so step removes it from
		// this heap until the post-step update.
		return fmt.Errorf("domain %d: mid-step core %d still in the stall heap", d.id, c.ID)
	}
	for _, c := range d.cores {
		if c == d.stepping {
			continue
		}
		if c.current != nil && c.idleNb > 0 {
			// Idle-adjacent stalled cores live in the secondary heap; their
			// runnability is evaluated on demand, never cached in the runq.
			if c.schedPos >= 0 {
				return fmt.Errorf("domain %d: stalled core %d still in the runq (key %v)", d.id, c.ID, c.schedKey)
			}
			if c.stallPos < 0 {
				return fmt.Errorf("domain %d: stalled core %d missing from the stall heap", d.id, c.ID)
			}
			continue
		}
		if c.stallPos >= 0 {
			return fmt.Errorf("domain %d: core %d in the stall heap but not idle-adjacent stalled", d.id, c.ID)
		}
		key, ok := d.runnable(c)
		switch {
		case ok && c.schedPos < 0:
			return fmt.Errorf("domain %d: core %d runnable (key %v) but not indexed", d.id, c.ID, key)
		case !ok && c.schedPos >= 0:
			return fmt.Errorf("domain %d: core %d indexed (key %v) but not runnable", d.id, c.ID, c.schedKey)
		case ok && key != c.schedKey:
			return fmt.Errorf("domain %d: core %d indexed with key %v, runnable key %v", d.id, c.ID, c.schedKey, key)
		}
	}
	return nil
}
