package core

import (
	"simany/internal/network"
	"simany/internal/vtime"
)

// The kernel executes on one of two engines:
//
//   - the sequential engine (seq.go): one scheduling loop over all cores,
//     exactly the original SiMany kernel;
//   - the sharded engine (shard.go): the topology is partitioned into
//     contiguous shards (topology.Partition), each driven by its own local
//     pickCore/step loop, with cross-shard traffic exchanged through
//     per-shard mailboxes drained at deterministic round barriers.
//
// Both engines schedule through the same per-domain machinery below: a
// domain is one schedulable partition of the machine (the whole machine for
// the sequential engine) owning its cores' queues, its worker pool and its
// share of the bookkeeping.

// domain is one execution shard: the unit of host-side scheduling.
type domain struct {
	k     *Kernel
	id    int
	cores []*Core // owned cores, ascending ID

	blocked map[uint64]*Task
	live    int64 // live tasks resident in this domain
	maxTime vtime.Time
	busy    int //simany:derived non-idle core count, a function of the encoded idle flags

	// limit caps every horizon handed to tasks of this domain while a shard
	// round is in progress (Inf on the sequential engine and between
	// rounds): cross-shard effective-time proxies are frozen during a
	// round, so local progress must not outrun the round quantum.
	//
	//simany:derived transient round state; checkpoints happen at barriers where limit is reset
	limit vtime.Time

	// rq is the indexed runnable queue (sched.go) and sq its companion
	// heap of idle-adjacent stalled cores (efflazy.go); both nil when the
	// policy's horizon is not cacheable and the domain schedules through
	// the scan. stepping is the core currently inside step, whose index
	// entry is transient until the step completes.
	rq       *runq     //simany:derived runnable heap, a function of the encoded queues and clocks (schedRebuild)
	sq       *coreHeap //simany:derived stalled-core heap, a function of the encoded queues and clocks (schedRebuild)
	stepping *Core     //simany:derived transient mid-step marker, nil at every barrier

	// Host-parallelism potential sampling (§VIII).
	runnableSum     int64
	runnableSamples int64
	runnableMax     int

	// Effective-time state (efflazy.go), maintained when the policy
	// relays: the busy frontier anchors (a min-heap by maintained eff, so
	// the anchor floor is its root), the memo-invalidation epoch and the
	// frozen-proxy floor.
	busyList coreHeap //simany:derived frontier anchor heap, rebuilt from the encoded idle flags at every barrier
	effEpoch uint64   //simany:derived memo invalidation epoch, host-side only: results do not depend on its value
	// shapeEpoch advances only when the anchor *set* changes (a busy/idle
	// flip, a barrier refresh) — never on pure value moves, which are
	// monotone. A stalled core's sticky runnable bit (Core.rnStamp) is
	// valid per shape epoch: within one, horizons can only rise, so a core
	// once observed runnable stays runnable until its own inputs change.
	shapeEpoch uint64 //simany:derived sticky-runnable invalidation epoch, host-side only like effEpoch
	effGen     uint64 //simany:derived lazyFix BFS visited generation, transient per query
	// Search counters, read by tests only: region searches run (lazyFix),
	// the neighbour visits they made, landmark scans run
	// (anchorCanImprove) and the table reads those scans were charged.
	effSearches, effVisits, lmScans, lmCost int64 //simany:derived test-read counters, no simulated state
	//simany:derived minimum over frozen cross-shard proxies, recomputed at every barrier
	frozenFloor vtime.Time
	effScratch  []int //simany:derived reusable BFS ring buffer, empty between uses

	// Sharded-engine state: cross-shard traffic deferred to the next
	// barrier, and the step count of the current round.
	outbox     []deferredItem //simany:derived drained at every barrier, so empty at each checkpoint
	roundSteps int            //simany:derived transient per-round counter, reset when a round starts
	stepsTotal int64

	// Message-delivery statistics, owned by this domain: sendNow always
	// runs either on the worker driving the destination's shard or inside
	// the single-threaded barrier, so plain counters suffice and the state
	// stays reachable from the per-shard root for checkpointing.
	oooMsgs int64
	handled int64

	// Coroutine/struct pools for the task lifecycle hot path. Both are
	// owned-state in the shard-safety sense: pushed in step's yieldDone
	// branch and popped in startTask/NewTask, which all run in the owning
	// domain's execution context (or the single-threaded barrier). Worker
	// and Task pointer identity never feeds a scheduling decision, so
	// recycling cannot perturb determinism.
	freeWorkers []*taskWorker //simany:derived coroutine pool, host-side only
	freeTasks   []*Task       //simany:derived allocation pool; recycled identities never reach scheduling

	// Per-shard trace buffer: events emitted while this domain executes
	// (or, inside a barrier, events whose core this domain owns) are
	// appended here lock-free and merged deterministically by
	// Kernel.flushTrace at the next barrier. traceSeq is the per-shard
	// emission order, the merge's tie-break within (VT, Core).
	//simany:derived flushed by Kernel.flushTrace at every barrier, so empty at each checkpoint
	traceBuf []TraceEvent
	traceSeq uint64
}

// deferredItem is one unit of cross-shard traffic: either an architectural
// message to route and handle at the barrier, or an internal operation
// (state mutation on another shard's data). Items are drained in the
// deterministic order (stamp, src, idx) — virtual time first, source core
// for ties, then program order within one source shard.
type deferredItem struct {
	stamp vtime.Time
	src   int32
	idx   int32 // append position within the producing outbox
	isMsg bool
	msg   network.Message
	op    func()
}

func (d *domain) enqueueMsg(msg network.Message) {
	d.outbox = append(d.outbox, deferredItem{
		stamp: msg.Stamp, src: int32(msg.Src),
		idx: int32(len(d.outbox)), isMsg: true, msg: msg,
	})
}

func (d *domain) enqueueOp(src int, stamp vtime.Time, fn func()) {
	d.outbox = append(d.outbox, deferredItem{
		stamp: stamp, src: int32(src),
		idx: int32(len(d.outbox)), op: fn,
	})
}

// runnable reports whether core c can be scheduled now, and the virtual
// time key used to prioritize it.
func (d *domain) runnable(c *Core) (vtime.Time, bool) {
	k := d.k
	if c.current != nil {
		// Stalled mid-task: runnable when the horizon has moved past the
		// core's clock.
		if c.vt <= k.policy.Horizon(c) {
			return c.vt, true
		}
		return 0, false
	}
	if len(c.conts) == 0 && len(c.ready) == 0 {
		return 0, false
	}
	// Picking a task may move the clock forward (to the task's stamp);
	// starting is always allowed — the first block boundary enforces the
	// drift.
	key := c.vt
	if c.idle {
		key = c.minReadyArrival()
		if len(c.conts) > 0 && c.conts[0].resume < key {
			// The next task to run would be the head continuation, not the
			// earliest one — the queue is FIFO — but any queued stamp is a
			// valid wake-up key and the head is the cheapest O(1) choice,
			// matching the reference kernel.
			key = c.conts[0].resume
		}
	}
	return key, true
}

// scanRunnable is the scheduling decision spelled out: a linear scan over
// the domain's cores for the runnable core with the lowest virtual-time
// key not exceeding limit (ties broken by core ID), plus the count of
// runnable cores within the limit. Domains without an index schedule
// through it, and it is the semantic definition the indexed queue must
// reproduce.
func (d *domain) scanRunnable(limit vtime.Time) (best *Core, bestKey vtime.Time, count int) {
	bestKey = vtime.Inf
	for _, c := range d.cores {
		key, ok := d.runnable(c)
		if !ok || key > limit {
			continue
		}
		count++
		if best == nil || key < bestKey {
			best = c
			bestKey = key
		}
	}
	return best, bestKey, count
}

// bestRunnable is the scheduling decision — the runnable core with the
// lowest (key, ID) within limit, its key, and how many cores are runnable
// within limit — from the indexed queues when the domain has them, from
// the scan otherwise. This is the one place the two schedulers fork.
func (d *domain) bestRunnable(limit vtime.Time) (*Core, vtime.Time, int) {
	if d.rq == nil {
		return d.scanRunnable(limit)
	}
	return d.pickIndexed(limit)
}

// pickCore selects the runnable core with the lowest virtual-time key not
// exceeding limit (deterministic; ties broken by core ID). It also
// samples how many cores were simultaneously runnable — the quantity
// behind the paper's §VIII observation that spatial synchronization
// leaves enough independently simulatable cores to keep a multi-core host
// busy.
func (d *domain) pickCore(limit vtime.Time) *Core {
	best, key, runnable := d.bestRunnable(limit)
	if best != nil {
		d.runnableSamples++
		d.runnableSum += int64(runnable)
		if runnable > d.runnableMax {
			d.runnableMax = runnable
		}
		if d.k.onPick != nil {
			d.k.onPick(best, key)
		}
	}
	return best
}

// step schedules one task segment on core c.
func (d *domain) step(c *Core) {
	k := d.k
	k.steps.Add(1)
	d.stepsTotal++
	// While the step runs, c's clock, queues and current task are in
	// flux; its index entry is settled by the schedUpdate at the end,
	// before the domain consults the queue again. The runq tolerates the
	// transient (it orders by the cached schedKey), but the stall heap
	// orders by the live clock, so c leaves it for the duration: mid-step
	// sifts of other cores must never compare against a moving key.
	d.stepping = c
	if c.stallPos >= 0 {
		d.sq.remove(c)
	}
	t := c.current
	switch {
	case t != nil:
		// Resume the stalled task in place.
	case len(c.conts) > 0:
		t = c.popCont()
		// Context switch to a joining task resuming execution (§V).
		c.vt = vtime.Max(c.vt, t.resume) + k.ctxSwitchCost
		c.stats.Switches++
		t.state = TaskRunning
		c.current = t
		k.emit(TraceTaskResume, c.vt, c.ID, t, 0)
	default:
		t = c.popReady()
		// Starting a task costs 10 cycles in addition to the transit time
		// of the spawn message (§V).
		c.vt = vtime.Max(c.vt, t.arrival) + k.taskStartCost
		c.stats.TaskStarts++
		t.state = TaskRunning
		c.current = t
		k.emit(TraceTaskStart, c.vt, c.ID, t, 0)
		if k.onTaskStart != nil {
			k.onTaskStart(c, t)
		}
	}
	if c.idle {
		c.idle = false
		d.busy++
	}
	d.effSite(c)

	// Switch to the task's worker coroutine until it yields.
	t.env.horizon = k.horizonFor(c)
	if t.worker == nil {
		// First slice of the body.
		t.started = true
		d.startTask(t)
	}
	kind, _ := t.worker.next()

	switch kind {
	case yieldDone:
		t.state = TaskDone
		t.endVT = c.vt
		c.current = nil
		d.live--
		if c.vt > d.maxTime {
			d.maxTime = c.vt
		}
		k.emit(TraceTaskEnd, c.vt, c.ID, t, 0)
		d.releaseWorker(t)
	case yieldBlocked:
		t.state = TaskBlocked
		d.blocked[t.ID] = t
		c.current = nil
		k.emit(TraceTaskBlock, c.vt, c.ID, t, 0)
	case yieldStalled:
		// c.current stays set; the task resumes in place later.
		k.emit(TraceTaskStall, c.vt, c.ID, t, 0)
	}
	if c.current == nil && len(c.conts) == 0 && len(c.ready) == 0 {
		c.idle = true
		d.busy--
	}
	d.effSite(c)
	d.stepping = nil
	d.schedUpdate(c)
}

// startTask attaches a worker to a task about to run its first slice: a
// parked one from the domain's free pool (LIFO, for cache warmth) when one
// is available, a new coroutine otherwise.
func (d *domain) startTask(t *Task) {
	var w *taskWorker
	if n := len(d.freeWorkers); n > 0 {
		w = d.freeWorkers[n-1]
		d.freeWorkers[n-1] = nil
		d.freeWorkers = d.freeWorkers[:n-1]
	} else {
		w = newTaskWorker()
	}
	w.task = t
	t.worker = w
}

// releaseWorker returns a finished task's worker to the pool and, if the
// task opted in via ReleaseOnDone, recycles its struct too. References held
// by the retired struct (body closure, Meta payload) are dropped so the
// pool never pins user data. Runs in the yieldDone branch of step — the
// owning domain's execution context.
func (d *domain) releaseWorker(t *Task) {
	d.freeWorkers = append(d.freeWorkers, t.worker)
	// A finished task a caller still holds must not pin the coroutine.
	t.worker = nil
	if t.release {
		*t = Task{}
		d.freeTasks = append(d.freeTasks, t)
	}
}
