package core

import (
	"simany/internal/cache"
	"simany/internal/rng"
	"simany/internal/timing"
	"simany/internal/vtime"
)

// Core is the simulation state of one simulated processor core.
type Core struct {
	// ID is the core index in the topology.
	ID int
	// Speed is the computing-power factor of the core (1.0 for base cores;
	// the paper's polymorphic architectures use 0.5 and 1.5). Computation
	// costs are divided by Speed.
	//
	//simany:derived immutable configuration, reinstated by New from Config
	Speed float64

	k *Kernel //simany:derived backpointer, wired by New
	//simany:derived backpointer, rewired when domains are rebuilt
	dom *domain // execution shard owning this core

	// rng is the core's private random stream (seed ^ coreID splitmix):
	// draws by simulated code stay deterministic regardless of how shards
	// are scheduled on host threads. It is a serializable rng.Rand so its
	// exact stream position survives a checkpoint/restore round trip.
	// Embedded by value — one machine word — so 100k cores do not pay
	// 100k separate heap objects for their streams.
	rng rng.Rand

	vt   vtime.Time // current virtual time (meaningful while busy)
	idle bool
	//simany:derived effective-time cache, a function of the encoded clocks and idle flags (refreshEff)
	eff vtime.Time // advertised effective time (vt when busy, shadow memo when idle; Inf when the policy does not relay)

	// Effective-time state (efflazy.go): the memo epoch stamp that
	// validates eff for an idle core, the BFS visited generation, and the
	// core's slots in its domain's anchor heap and stall heap.
	effStamp uint64 //simany:derived memo validity stamp vs domain.effEpoch, 0 = stale
	effSeen  uint64 //simany:derived lazyFix visited marker vs domain.effGen, transient per BFS
	busyPos  int    //simany:derived slot in the domain.busyList heap (-1 = idle), a function of the encoded idle flags
	stallPos int    //simany:derived index in domain.sq (-1 = not stalled), a function of the encoded queues and clocks
	idleNb   int32  //simany:derived count of idle same-domain neighbors, a function of the encoded idle flags (schedRebuild)
	rnStamp  uint64 //simany:derived sticky stalled-runnable stamp vs domain.shapeEpoch, cleared by schedUpdate

	//simany:derived immutable topology adjacency, rebuilt by New
	neighbors []int // topological neighbors (sorted)
	//simany:derived neighbor effective-time proxies, refreshed from eff at every barrier
	nbEff []vtime.Time // exact at barriers; read between them only for neighbors in other shards

	// Resident tasks. conts and ready are only mutated through the
	// push/pop helpers below, which maintain the cached queue minima.
	current *Task   // task that yielded as stalled, resumed first
	conts   []*Task // unblocked continuations (run before fresh tasks)
	ready   []*Task // fresh tasks in arrival order

	// Cached queue minima: the minimum arrival stamp over ready and the
	// minimum resume stamp over conts, maintained incrementally (same
	// lazy-recompute discipline as the birth cache) so the scheduler's
	// runnable-key computation and NextEventTime never rescan the queues.
	readyMin      vtime.Time //simany:derived lazy cache over ready, a function of the encoded queue
	readyMinDirty bool       //simany:derived validity bit of readyMin, host-side only
	contsMin      vtime.Time //simany:derived lazy cache over conts, a function of the encoded queue
	contsMinDirty bool       //simany:derived validity bit of contsMin, host-side only

	// Indexed-scheduler state (sched.go), owned by the core's domain:
	// position in the domain's runnable heap (-1 = not enqueued) and the
	// cached runnable key it is ordered by while enqueued.
	schedPos int        //simany:derived heap index, a function of the encoded queues and clocks (schedRebuild)
	schedKey vtime.Time //simany:derived cached runnable key, a function of the encoded queues and clocks (schedRebuild)

	lockDepth int // >0: lock-holder exemption from spatial stalls

	// lastHandled is the latest handled arrival stamp at this core, used
	// for the out-of-order delivery statistic. It lives on the core (the
	// per-shard root) rather than the kernel so it is plain per-shard
	// state: sendNow always runs in the destination shard's context.
	lastHandled vtime.Time

	births     map[uint64]vtime.Time // birth stamps of spawned, not-yet-started tasks
	birthCache vtime.Time            //simany:derived lazy min over births, a function of the encoded registry
	birthDirty bool                  //simany:derived validity bit of birthCache, host-side only

	// taskSeq numbers the tasks this core has spawned. Task IDs are
	// allocated per spawning core (NewTask), so they are deterministic
	// under sharded execution: each counter is only touched by the worker
	// driving the core's shard, never by a racing interleaving.
	taskSeq uint64

	// Timing machinery.
	timer *timing.BlockTimer
	l1    *cache.Scoped
	l2    *cache.L2

	stats CoreStats
}

// CoreStats aggregates per-core counters.
type CoreStats struct {
	Blocks        int64 // annotation blocks executed
	Instructions  int64
	Stalls        int64 // spatial/policy stalls
	TaskStarts    int64
	Switches      int64 // context switches to resumed continuations
	MsgsSent      int64
	ComputeTime   vtime.Time // virtual time spent computing
	MemTime       vtime.Time // virtual time spent in memory accesses
	StallWaitTime vtime.Time // not simulated time; count of stall events only
}

// VT returns the core's current virtual time.
func (c *Core) VT() vtime.Time { return c.vt }

// Kernel returns the owning kernel.
func (c *Core) Kernel() *Kernel { return c.k }

// Eff returns the effective time the core advertises to its neighbors: a
// busy core's clock as of its last step boundary, an idle core's shadow
// time computed on demand from its region's busy frontier (and memoized).
// Effective times exist only under policies that relay them
// (IdleRelayPolicy); under any other policy Eff is Inf.
func (c *Core) Eff() vtime.Time {
	if !c.k.effLazy {
		return vtime.Inf
	}
	return c.dom.lazyEff(c)
}

// Idle reports whether the core has no runnable or stalled resident task.
func (c *Core) Idle() bool { return c.idle }

// LockDepth returns the number of locks currently held by tasks on this
// core.
func (c *Core) LockDepth() int { return c.lockDepth }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() CoreStats { return c.stats }

// Rand returns the core's private deterministic random source. Simulated
// code (runtime policies, benchmark task bodies) must draw from here
// rather than Kernel.Rand so results do not depend on the interleaving of
// shard workers.
func (c *Core) Rand() *rng.Rand { return &c.rng }

// Neighbors returns the core's topological neighbors.
func (c *Core) Neighbors() []int { return c.neighbors }

// L1 returns the core's pessimistic scoped L1 model.
func (c *Core) L1() *cache.Scoped { return c.l1 }

// L2 returns the core's L2 model (used by the distributed-memory runtime).
func (c *Core) L2() *cache.L2 { return c.l2 }

// minBirth returns the minimum outstanding birth stamp, Inf if none.
func (c *Core) minBirth() vtime.Time {
	if !c.birthDirty {
		return c.birthCache
	}
	m := vtime.Inf
	for _, t := range c.births {
		if t < m {
			m = t
		}
	}
	c.birthCache = m
	c.birthDirty = false
	return m
}

// addBirth records the birth stamp of a task spawned by this core that has
// not started executing yet (§II.A "Time drift of dynamically created
// tasks").
func (c *Core) addBirth(id uint64, stamp vtime.Time) {
	if c.births == nil {
		c.births = make(map[uint64]vtime.Time)
	}
	c.births[id] = stamp
	c.birthDirty = true
}

// removeBirth discards a birth stamp once the spawned task has started.
func (c *Core) removeBirth(id uint64) {
	if _, ok := c.births[id]; ok {
		delete(c.births, id)
		c.birthDirty = true
	}
}

// minReadyArrival returns the minimum arrival stamp over the core's fresh
// task queue, Inf when it is empty.
func (c *Core) minReadyArrival() vtime.Time {
	if c.readyMinDirty {
		m := vtime.Inf
		for _, t := range c.ready {
			if t.arrival < m {
				m = t.arrival
			}
		}
		c.readyMin = m
		c.readyMinDirty = false
	}
	return c.readyMin
}

// minContResume returns the minimum resume stamp over the core's
// continuation queue, Inf when it is empty.
func (c *Core) minContResume() vtime.Time {
	if c.contsMinDirty {
		m := vtime.Inf
		for _, t := range c.conts {
			if t.resume < m {
				m = t.resume
			}
		}
		c.contsMin = m
		c.contsMinDirty = false
	}
	return c.contsMin
}

// pushReady appends a fresh task; the cached minimum absorbs the new
// arrival directly unless it is already pending a recompute.
func (c *Core) pushReady(t *Task) {
	c.ready = append(c.ready, t)
	if !c.readyMinDirty && t.arrival < c.readyMin {
		c.readyMin = t.arrival
	}
}

// popReady removes and returns the head of the fresh task queue. Removing
// the task that carried the cached minimum schedules a lazy recompute;
// draining the queue resets the cache exactly.
func (c *Core) popReady() *Task {
	t := c.ready[0]
	c.ready = c.ready[1:]
	if len(c.ready) == 0 {
		c.readyMin = vtime.Inf
		c.readyMinDirty = false
	} else if !c.readyMinDirty && t.arrival == c.readyMin {
		c.readyMinDirty = true
	}
	return t
}

// pushCont appends an unblocked continuation (see pushReady).
func (c *Core) pushCont(t *Task) {
	c.conts = append(c.conts, t)
	if !c.contsMinDirty && t.resume < c.contsMin {
		c.contsMin = t.resume
	}
}

// popCont removes and returns the head continuation (see popReady).
func (c *Core) popCont() *Task {
	t := c.conts[0]
	c.conts = c.conts[1:]
	if len(c.conts) == 0 {
		c.contsMin = vtime.Inf
		c.contsMinDirty = false
	} else if !c.contsMinDirty && t.resume == c.contsMin {
		c.contsMinDirty = true
	}
	return t
}

// hasRunnableWork reports whether the core has anything to execute.
func (c *Core) hasRunnableWork() bool {
	return c.current != nil || len(c.conts) > 0 || len(c.ready) > 0
}

// residentTasks counts tasks attached to the core in any state, used for
// occupancy probes by the task runtime.
func (c *Core) residentTasks() int {
	n := len(c.conts) + len(c.ready)
	if c.current != nil {
		n++
	}
	return n
}

// QueueLength returns the number of fresh tasks waiting in the core's task
// queue (the quantity bounded by the runtime's queue capacity).
func (c *Core) QueueLength() int { return len(c.ready) }

// NextEventTime returns the earliest virtual time at which the core could
// execute something: its clock while busy, the earliest pending task stamp
// while it only has queued work, and Inf when it is fully idle. Global
// synchronization schemes use it as the core's position in virtual time.
func (c *Core) NextEventTime() vtime.Time {
	if !c.idle {
		return c.vt
	}
	m := c.minContResume()
	if r := c.minReadyArrival(); r < m {
		m = r
	}
	if m == vtime.Inf {
		return m
	}
	return vtime.Max(c.vt, m)
}
