package core

import (
	"fmt"

	"simany/internal/vtime"
)

// The scheduler.
//
// The scheduling decision is the runnable core with the lowest (virtual-time
// key, core ID) within the limit — what a linear scan over the domain's
// cores would find (the scan survives as the test oracle in
// equiv_test.go). The runq keeps that decision indexed: the run-slot
// coreHeap (efflazy.go) keyed by (key, core ID), so picking is an O(1)
// peek and repositioning a core after a step an O(log n) sift.
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
//     shard-local policy (ShardLocalPolicy) is a pure function of its
//     neighbors' effective times (effSite / refreshEff), its birth stamps
//     (RegisterBirth / clearBirth) and its lock depth (mutated only by the
//     core's own running task).
//
// Stalled cores whose horizons no cached key could track live in the
// stall heap instead (domain.stallRouted), evaluated on demand at every
// pick (domain.stallBest).

// runq is a domain's indexed runnable queue: the run-slot coreHeap, whose
// entries carry each core's cached runnable key and whose (key, ID) order
// mirrors exactly the minimization of the reference scan. A core is in
// the heap if and only if the last schedUpdate found it runnable.
//
// limit is the armed round limit (Inf outside shard rounds) and within
// the number of entries whose key is ≤ limit — the §VIII runnable count,
// adjusted by every insert, remove and key move so a pick reads it in
// O(1).
type runq struct {
	coreHeap
	d      *domain
	limit  vtime.Time
	within int
}

// in is 1 when key is within the armed limit, 0 otherwise.
func (q *runq) in(key vtime.Time) int {
	if key <= q.limit {
		return 1
	}
	return 0
}

// arm sets the limit the runnable count is kept against, recounting the
// queue once: O(entries), paid per shard round rather than per pick.
func (q *runq) arm(limit vtime.Time) {
	q.limit, q.within = limit, 0
	for _, e := range q.heap {
		q.within += q.in(e.key)
	}
}

func (q *runq) remove(c *Core) {
	q.within -= q.in(q.heap[c.hpos[runSlot]].key)
	q.coreHeap.remove(c)
}

// update re-evaluates c's runnability and repositions it: insert when it
// became runnable, remove when it stopped being runnable, sift when its
// key moved. Calling it redundantly is cheap and harmless, so invalidation
// sites do not need to prove the value actually changed.
func (q *runq) update(c *Core) {
	key, ok := q.d.runnable(c)
	i := c.hpos[runSlot]
	switch {
	case !ok:
		if i >= 0 {
			q.remove(c)
		}
		return
	case i >= 0:
		if key == q.heap[i].key {
			return
		}
		q.within -= q.in(q.heap[i].key)
	}
	q.within += q.in(key)
	q.put(c, key)
}

// rebuild recomputes the queue from scratch — membership, keys and heap
// order — in O(cores). Run() calls it once per engine start; everything
// after that is incremental. The stall heap's cores (rebuilt separately)
// are excluded here.
func (q *runq) rebuild() {
	members := q.heap[:0]
	for _, c := range q.d.cores {
		c.hpos[runSlot] = -1
		if q.d.stallRouted(c) {
			continue
		}
		if key, ok := q.d.runnable(c); ok {
			members = append(members, heapEntry{key, c})
		}
	}
	q.init(members)
	q.arm(q.limit)
}

// pick returns the scan-equivalent scheduling decision: the minimal-key
// entry within the armed limit and the number of runnable cores within
// it (a zero entry and 0 when none qualifies).
func (q *runq) pick() (heapEntry, int) {
	if len(q.heap) == 0 || q.heap[0].key > q.limit {
		return heapEntry{}, 0
	}
	return q.heap[0], q.within
}

// stallRouted reports whether c belongs to the stall heap rather than the
// runq: it is stalled mid-task and its horizon cannot be cached, because it
// reads an idle neighbor's lazily evaluated shadow time (which posts no
// invalidation callback) or because the policy is not shard-local (its
// horizon is not monotone between invalidations and may draw from the
// RNG). Stalled cores without idle neighbors under a shard-local policy
// keep exact runq keys: their horizons read only busy neighbors'
// maintained times (effSite notifies on every change) and frozen
// cross-shard proxies (refreshed under a full rebuild).
func (d *domain) stallRouted(c *Core) bool {
	return c.current != nil && (c.idleNb > 0 || !d.k.localPolicy)
}

// schedUpdate posts an incremental runnability update for c to its
// domain's queues. Calls for a core that is mid-step observe a transient
// state; the post-step update in domain.step settles it before the queues
// are next read (the domain only consults them between steps).
func (d *domain) schedUpdate(c *Core) {
	// Every non-eff horizon input (clock, births, locks) funnels its
	// mutations through here, so dropping the sticky runnable bit on each
	// update is exactly the invalidation its contract needs.
	c.rnStamp = 0
	if d.stallRouted(c) {
		// The mid-step core stays out of the stall heap (its clock is
		// moving); the post-step update re-seats it.
		if c != d.stepping {
			d.sq.put(c, c.vt)
		}
		if c.hpos[runSlot] >= 0 {
			d.rq.remove(c)
		}
		return
	}
	if c.hpos[stallSlot] >= 0 {
		d.sq.remove(c)
	}
	d.rq.update(c)
}

// checkRunq verifies the structural invariants of the index — positions,
// heap order, the runnable count at the armed limit, stall-heap keys
// against the live clocks, and runq membership/key agreement with the
// reference runnable computation. The core currently mid-step (if any) is
// exempt from the membership check: its entry is refreshed when the step
// completes, before the queue is consulted again. Used by Kernel.Validate.
func (d *domain) checkRunq() error {
	q := &d.rq
	if err := q.check(nil); err != nil {
		return fmt.Errorf("domain %d: runq: %w", d.id, err)
	}
	within := 0
	for _, e := range q.heap {
		within += q.in(e.key)
	}
	if q.within != within {
		return fmt.Errorf("domain %d: runnable count %d within limit %v, linear count %d", d.id, q.within, q.limit, within)
	}
	if err := d.sq.check(func(c *Core) vtime.Time { return c.vt }); err != nil {
		return fmt.Errorf("domain %d: stall heap: %w", d.id, err)
	}
	if c := d.stepping; c != nil && c.hpos[stallSlot] >= 0 {
		// The mid-step core's clock is in flux, so step removes it from
		// this heap until the post-step update.
		return fmt.Errorf("domain %d: mid-step core %d still in the stall heap", d.id, c.ID)
	}
	for _, c := range d.cores {
		if c == d.stepping {
			continue
		}
		i := c.hpos[runSlot]
		if d.stallRouted(c) {
			// The stall heap's cores are evaluated on demand, never cached
			// in the runq.
			if i >= 0 {
				return fmt.Errorf("domain %d: stalled core %d still in the runq (key %v)", d.id, c.ID, q.heap[i].key)
			}
			if c.hpos[stallSlot] < 0 {
				return fmt.Errorf("domain %d: stalled core %d missing from the stall heap", d.id, c.ID)
			}
			continue
		}
		if c.hpos[stallSlot] >= 0 {
			return fmt.Errorf("domain %d: core %d in the stall heap but not routed there", d.id, c.ID)
		}
		key, ok := d.runnable(c)
		switch {
		case ok && i < 0:
			return fmt.Errorf("domain %d: core %d runnable (key %v) but not indexed", d.id, c.ID, key)
		case !ok && i >= 0:
			return fmt.Errorf("domain %d: core %d indexed (key %v) but not runnable", d.id, c.ID, q.heap[i].key)
		case ok && key != q.heap[i].key:
			return fmt.Errorf("domain %d: core %d indexed with key %v, runnable key %v", d.id, c.ID, q.heap[i].key, key)
		}
	}
	return nil
}
