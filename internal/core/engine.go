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

	// rq is the indexed runnable queue (sched.go); sq holds the stalled
	// cores evaluated at every pick and sk those found runnable
	// (stallBest). stepping is the core currently inside step, whose index
	// entry is transient until the step completes.
	rq         runq     //simany:derived runnable heap, a function of the encoded queues and clocks (schedRebuild)
	sq         coreHeap //simany:derived stalled-core heap, a function of the encoded queues and clocks (schedRebuild)
	sk         runq     //simany:derived sticky-runnable heap, host-side only: emptied by schedRebuild
	stallFound []*Core  //simany:derived stallBest scratch, empty between picks
	stepping   *Core    //simany:derived transient mid-step marker, nil at every barrier

	// runnableMax is the most cores ever sampled runnable at one pick
	// (§VIII; the sum is the core.runnable counter).
	runnableMax int

	// Effective-time state (efflazy.go), maintained when the policy
	// relays: the busy frontier anchors (a min-heap by maintained eff, so
	// the anchor floor is its root), the memo-invalidation epoch and the
	// frozen-proxy floor.
	busyList coreHeap //simany:derived frontier anchor heap, rebuilt from the encoded idle flags at every barrier
	effEpoch uint64   //simany:derived memo invalidation epoch, host-side only: results do not depend on its value
	effGen   uint64   //simany:derived lazyFix and flipDemote BFS visited generation, transient per query
	// Search counters, read by tests only: lazyFix's searches and neighbour
	// visits, flipDemote's neighbour visits, stallBest's stall-heap visits
	// and the sticky members flipDemote returned to the stall heap.
	effSearches, effVisits, flipVisits, stallVisits, stallDemoted int64 //simany:derived test-read counters, no simulated state
	//simany:derived minimum over frozen cross-shard proxies, recomputed at every barrier
	frozenFloor vtime.Time
	effScratch  []int        //simany:derived reusable BFS ring buffer, empty between uses
	border      []borderLink //simany:derived the domain's cross-shard links, built from the immutable partition by setupEff

	// Sharded-engine state: cross-shard traffic deferred to the next
	// barrier, and the step count of the current round.
	outbox     []deferredItem //simany:derived drained at every barrier, so empty at each checkpoint
	roundSteps int            //simany:derived transient per-round counter, reset when a round starts

	// Coroutine/struct pools for the task lifecycle hot path. Both are
	// owned-state in the shard-safety sense: pushed in step's yieldDone
	// branch and popped in startTask/NewTask, which all run in the owning
	// domain's execution context (or the single-threaded barrier). Worker
	// and Task pointer identity never feeds a scheduling decision, so
	// recycling cannot perturb determinism.
	freeWorkers []*taskWorker //simany:derived coroutine pool, host-side only
	freeTasks   []*Task       //simany:derived allocation pool; recycled identities never reach scheduling
	runs        []runState    //simany:derived unused rest of the current run-state chunk (newRun), host-side only

	// Per-shard trace buffer: events emitted while this domain executes
	// (or, inside a barrier, events whose core this domain owns) are
	// appended here lock-free and merged deterministically by
	// Kernel.flushTrace at the next barrier. traceSeq is the per-shard
	// emission order, the merge's tie-break within (VT, Core).
	//simany:derived flushed by Kernel.flushTrace at every barrier, so empty at each checkpoint
	traceBuf []TraceEvent
	traceSeq uint64 //simany:derived observability state, reproduced by the replay, never compared
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

func (d *domain) enqueueMsg(msg *network.Message) {
	d.outbox = append(d.outbox, deferredItem{
		stamp: msg.Stamp, src: int32(msg.Src),
		idx: int32(len(d.outbox)), isMsg: true, msg: *msg,
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
		if c.vt <= k.policyHorizon(c) {
			return c.vt, true
		}
		return 0, false
	}
	r := c.peek()
	if len(r.conts) == 0 && len(r.ready) == 0 {
		return 0, false
	}
	// Picking a task may move the clock forward (to the task's stamp);
	// starting is always allowed — the first block boundary enforces the
	// drift.
	key := c.vt
	if c.idle {
		key = c.minReadyArrival()
		if len(r.conts) > 0 && r.conts[0].resume < key {
			// The next task to run would be the head continuation, not the
			// earliest one — the queue is FIFO — but any queued stamp is a
			// valid wake-up key and the head is the cheapest O(1) choice,
			// matching the reference kernel.
			key = r.conts[0].resume
		}
	}
	return key, true
}

// pickCore selects the runnable core with the lowest virtual-time key not
// exceeding limit (deterministic; ties broken by core ID). It also
// samples how many cores were simultaneously runnable — the quantity
// behind the paper's §VIII observation that spatial synchronization
// leaves enough independently simulatable cores to keep a multi-core host
// busy.
func (d *domain) pickCore(limit vtime.Time) *Core {
	best, key, runnable := d.pickIndexed(limit)
	if best != nil {
		d.k.ctr.runnable.Add(d.id, int64(runnable))
		d.runnableMax = max(d.runnableMax, runnable)
		if d.k.onPick != nil {
			d.k.onPick(best, key, runnable)
		}
	}
	return best
}

// step schedules one task segment on core c.
func (d *domain) step(c *Core) {
	k := d.k
	k.steps.Add(1)
	k.ctr.steps.Inc(d.id)
	// While the step runs, c's clock, queues and current task are in
	// flux; its index entry is settled by the schedUpdate at the end,
	// before the domain consults the queue again. The runq tolerates the
	// transient (its entry holds the cached key), but the stall and
	// sticky heaps key on the live clock, so c leaves them for now.
	d.stepping = c
	if c.hpos[stallSlot] >= 0 {
		d.sq.remove(c)
	}
	if c.hpos[stickySlot] >= 0 {
		d.sk.remove(c)
	}
	t, r := c.current, c.run // a core with a task has run state
	switch {
	case t != nil:
		// Resume the stalled task in place.
	case len(r.conts) > 0:
		t = r.conts[0]
		r.conts = r.conts[1:]
		// Context switch to a joining task resuming execution (§V).
		c.vt = vtime.Max(c.vt, t.resume) + ctxSwitchCost
		k.ctr.switches.Inc(c.ID)
		t.state = TaskRunning
		c.current = t
		k.emit(TraceTaskResume, c.vt, c.ID, t, 0)
	default:
		t = c.popReady()
		// Starting a task costs 10 cycles in addition to the transit time
		// of the spawn message (§V).
		c.vt = vtime.Max(c.vt, t.arrival) + taskStartCost
		k.ctr.taskStarts.Inc(c.ID)
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
	if c.current == nil && len(r.conts) == 0 && len(r.ready) == 0 {
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
