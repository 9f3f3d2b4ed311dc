package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"simany/internal/vtime"
)

// The sharded engine runs the partitioned machine in rounds:
//
//  1. Round setup (single-threaded): find the globally minimal runnable
//     virtual-time key and set the round limit = minKey + quantum.
//  2. Round (parallel): every domain drives its own pickCore/step loop,
//     scheduling only cores whose key does not exceed the limit. All
//     horizons are capped at the limit, so no core outruns the frozen
//     cross-shard proxies by more than the quantum. Cross-shard messages
//     and state mutations are appended to the executing shard's outbox.
//  3. Barrier (single-threaded): outboxes are merged, sorted by
//     (stamp, src, idx) and applied — messages are routed and handled,
//     deferred operations run. This order depends only on virtual time and
//     topology, never on host scheduling, which is what makes the engine
//     deterministic for a fixed shard count.
//  4. Effective-time refresh (single-threaded): idle shadow times are
//     recomputed globally so the next round starts from consistent
//     proxies.
//
// Progress: the domain owning the minimal key always schedules at least
// one step per round, and every step advances bounded virtual state, so
// rounds terminate and the simulation advances.

// shardStepBudget bounds the scheduling steps one domain may take per
// round, per owned core. It is a deterministic backstop against
// pathological rounds; the quantum is the primary round bound.
const shardStepBudget = 64

// runShard drives the sharded parallel engine. Trace buffers are flushed
// (merged and handed to the tracer) at every barrier and on every exit
// path, so a Recorder sees the complete stream even when the run aborts.
func (k *Kernel) runShard() (Result, error) {
	for {
		if err := k.takePanic(); err != nil {
			k.flushTrace()
			return Result{}, err
		}
		if k.maxSteps > 0 && k.steps.Load() >= k.maxSteps {
			k.flushTrace()
			return Result{}, fmt.Errorf("core: exceeded %d scheduling steps", k.maxSteps)
		}
		minKey := k.minRunnableKey()
		if minKey == vtime.Inf {
			if k.liveTasks() == 0 {
				return k.result(), nil
			}
			return Result{}, k.deadlockError()
		}
		limit := vtime.Inf
		if minKey < vtime.Inf-k.quantum {
			limit = minKey + k.quantum
		}
		k.runRound(limit)
		k.drainBarrier()
		k.refreshEff()
		if k.met != nil {
			k.recordBarrier(minKey, limit)
		}
		k.flushTrace()
		if k.bcheck != nil {
			if err := k.barrierInvariants(); err != nil {
				return Result{}, err
			}
		}
		if k.stopAfter > 0 && k.steps.Load() >= k.stopAfter {
			// The barrier sequence above has fully quiesced the machine:
			// outboxes drained, proxies refreshed, traces flushed. This is
			// the one point where a checkpoint is legal. Every round takes
			// a step, so a replay to the recorded step count stops here.
			k.paused = true
			return k.result(), ErrPaused
		}
	}
}

// minRunnableKey returns the globally minimal runnable virtual-time key —
// the anchor of the next round's window: a peek over the per-domain
// queues, O(shards) plus the stall heaps' walks instead of a full machine
// scan. Barriers run the queues' invalidation hooks (drained items,
// effective-time refresh) before this is called, so every head is
// settled.
func (k *Kernel) minRunnableKey() vtime.Time {
	minKey := vtime.Inf
	for _, d := range k.domains {
		if head, key, _ := d.pickIndexed(vtime.Inf); head != nil && key < minKey {
			minKey = key
		}
	}
	return minKey
}

// runRound executes one bounded scheduling round on every domain,
// fanning the domains out over the worker pool.
func (k *Kernel) runRound(limit vtime.Time) {
	if k.workers <= 1 {
		for _, d := range k.domains {
			d.runLocal(limit)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(k.workers)
		for w := 0; w < k.workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(k.domains) {
						return
					}
					k.domains[i].runLocal(limit)
				}
			}()
		}
		wg.Wait()
	}
}

// setLimit caps the domain's horizons at limit and arms its runnable
// count there.
func (d *domain) setLimit(limit vtime.Time) {
	d.limit = limit
	d.rq.arm(limit)
}

// runLocal is one domain's share of a round: schedule local cores with
// keys inside the round limit until none remain (or the step budget runs
// out). Identical to the sequential loop, restricted to owned cores. The
// limit is armed for the round only: Inf again when it returns.
func (d *domain) runLocal(limit vtime.Time) {
	d.setLimit(limit)
	defer d.setLimit(vtime.Inf)
	d.roundSteps = 0
	budget := shardStepBudget * len(d.cores)
	for d.roundSteps < budget {
		c := d.pickCore(limit)
		if c == nil {
			return
		}
		d.roundSteps++
		d.step(c)
		// Stop early once the global step cap is exceeded; the round loop
		// turns this into the MaxSteps error. (Successful runs never reach
		// the cap, so this early exit cannot perturb their results.)
		if d.k.maxSteps > 0 && d.k.steps.Load() >= d.k.maxSteps {
			return
		}
	}
}

// drainBarrier merges all shard outboxes and applies the deferred items in
// deterministic (stamp, src, idx) order. Handlers run synchronously here
// — any messages or operations they trigger apply immediately, exactly as
// on the sequential engine.
//
//simany:barrier
func (k *Kernel) drainBarrier() {
	// The merge buffer is kernel scratch, reused across rounds so steady
	// state allocates nothing.
	items := k.barrierItems[:0]
	for _, d := range k.domains {
		items = append(items, d.outbox...)
		// The outbox backing array is per-round scratch too: drop its
		// payload/closure references so only the merge buffer pins them.
		clear(d.outbox)
		d.outbox = d.outbox[:0]
	}
	if len(items) == 0 {
		k.barrierItems = items
		return
	}
	// (stamp, src, idx) is a total order: src fixes the producing outbox
	// and idx is the unique append position within it.
	slices.SortFunc(items, func(a, b deferredItem) int {
		if c := cmp.Compare(a.stamp, b.stamp); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	k.inBarrier = true
	for i := range items {
		if items[i].isMsg {
			// sendNow routes the message in place (computing Arrival) and
			// handles it; validation sees the routed form.
			k.sendNow(&items[i].msg)
			if k.bcheck != nil {
				k.bcheck.recordMsg(items[i].msg)
			}
		} else {
			items[i].op()
		}
	}
	k.inBarrier = false
	// Drop payload and closure references before the next round so the
	// reused backing array does not pin handled items for the GC.
	clear(items)
	k.barrierItems = items[:0]
}

// refreshEff rebuilds every core's advertised effective time from global
// state: busy cores anchor at their clocks, idle cores settle at the
// (unique) fixpoint of the relay rule by a multi-source BFS in value
// order — busy cores sorted by eff merged with a FIFO of settled idle
// cores. Every hop adds the same delta, so the first value an idle core is
// handed is its fixpoint: O(idle + links + busy·log busy). Running it
// single-threaded at each barrier lets it read across shard boundaries;
// the border values are then frozen into the proxies a round reads, the
// per-domain bookkeeping (efflazy.go) is rebuilt with every idle memo
// seeded from the fixpoint, and the stalled cores' queue entries are
// re-evaluated against the new horizons. A no-op when the policy does not
// relay: nothing reads effective times then.
func (k *Kernel) refreshEff() {
	if !k.effLazy {
		return
	}
	// Kernel scratch reused across barriers: the sorted busy cores, then
	// the idle cores in the order they settle.
	order := k.effOrder[:0]
	for _, c := range k.cores {
		if c.idle {
			c.eff = vtime.Inf
		} else {
			c.eff = c.vt
			order = append(order, c)
		}
	}
	slices.SortFunc(order, func(a, b *Core) int { return cmp.Compare(a.eff, b.eff) })
	for src, fifo, busy := 0, len(order), len(order); src < busy || fifo < len(order); {
		var c *Core
		if src < busy && (fifo == len(order) || order[src].eff <= order[fifo].eff) {
			c, src = order[src], src+1
		} else {
			c, fifo = order[fifo], fifo+1
		}
		e := satAdd(c.eff, k.relayDelta)
		if e == vtime.Inf {
			break // every later pop saturates too
		}
		for _, nbID := range c.neighbors {
			if nb := k.cores[nbID]; nb.idle && nb.eff == vtime.Inf {
				nb.eff = e
				order = append(order, nb)
			}
		}
	}
	k.effOrder = order[:0]
	for _, d := range k.domains {
		d.frozenFloor = vtime.Inf
		for _, b := range d.border {
			*b.proxy = b.from.eff
			d.frozenFloor = min(d.frozenFloor, b.from.eff)
		}
		d.rebuildLazyFromRefresh()
	}
	for _, c := range k.cores {
		if c.current != nil {
			c.dom.schedUpdate(c)
		}
	}
}
