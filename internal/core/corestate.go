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
	// validates eff for an idle core and the BFS visited generation.
	effStamp uint64 //simany:derived memo validity stamp vs domain.effEpoch, 0 = stale
	effSeen  uint64 //simany:derived lazyFix visited marker vs domain.effGen, transient per BFS
	rnStamp  uint64 //simany:derived sticky stalled-runnable stamp vs domain.shapeEpoch (shard-local policies only), cleared by schedUpdate
	idleNb   int32  //simany:derived count of idle same-domain neighbors, a function of the encoded idle flags (schedRebuild)
	// hpos is the core's position in each of its domain's indexed heaps
	// (coreHeap, indexed by runSlot/anchorSlot/stallSlot; -1 = out).
	hpos [3]int32 //simany:derived heap positions, a function of the encoded queues, clocks and idle flags (schedRebuild)

	//simany:derived immutable topology adjacency, rebuilt by New
	neighbors []int // topological neighbors (sorted)
	//simany:derived neighbor effective-time proxies, refreshed from eff at every barrier
	nbEff []vtime.Time // exact at barriers; read between them only for neighbors in other shards

	// Resident tasks.
	current *Task   // task that yielded as stalled, resumed first
	conts   []*Task // unblocked continuations (run before fresh tasks)
	ready   []*Task // fresh tasks in arrival order

	lockDepth int // >0: lock-holder exemption from spatial stalls

	// lastHandled is the latest handled arrival stamp at this core, used
	// for the out-of-order delivery statistic. It lives on the core (the
	// per-shard root) rather than the kernel so it is plain per-shard
	// state: sendNow always runs in the destination shard's context.
	lastHandled vtime.Time

	// births holds the birth stamps of spawned, not-yet-placed tasks in
	// registration order, which is ascending task ID: IDs grow with
	// taskSeq. Measured at most 5 deep, so minBirth scans it.
	births []birth

	// taskSeq numbers the tasks this core has spawned. Task IDs are
	// allocated per spawning core (NewTask), so they are deterministic
	// under sharded execution: each counter is only touched by the worker
	// driving the core's shard, never by a racing interleaving.
	taskSeq uint64

	// Timing machinery.
	timer *timing.BlockTimer
	l1    *cache.Scoped
	l2    *cache.L2
}

// VT returns the core's current virtual time.
func (c *Core) VT() vtime.Time { return c.vt }

// Kernel returns the owning kernel.
func (c *Core) Kernel() *Kernel { return c.k }

// Eff returns the effective time the core advertises to its neighbors: a
// busy core's clock as of its last step boundary, an idle core's shadow
// time computed on demand from its region's busy frontier (and memoized).
// Effective times exist only under Spatial, the policy that relays them;
// under any other policy Eff is Inf.
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

// Rand returns the core's private deterministic random source. Simulated
// code (runtime policies, benchmark task bodies) must draw from here so
// results do not depend on the interleaving of shard workers.
func (c *Core) Rand() *rng.Rand { return &c.rng }

// Neighbors returns the core's topological neighbors.
func (c *Core) Neighbors() []int { return c.neighbors }

// L1 returns the core's pessimistic scoped L1 model.
func (c *Core) L1() *cache.Scoped { return c.l1 }

// L2 returns the core's L2 model (used by the distributed-memory runtime).
func (c *Core) L2() *cache.L2 { return c.l2 }

// birth is one outstanding birth stamp of a task spawned by the core.
type birth struct {
	id    uint64
	stamp vtime.Time
}

// minBirth returns the minimum outstanding birth stamp, Inf if none.
func (c *Core) minBirth() vtime.Time {
	m := vtime.Inf
	for _, b := range c.births {
		if b.stamp < m {
			m = b.stamp
		}
	}
	return m
}

// removeBirth discards a birth stamp once the spawned task has been
// placed. The delete keeps the order, so births stays sorted by ID.
func (c *Core) removeBirth(id uint64) {
	for i, b := range c.births {
		if b.id == id {
			c.births = append(c.births[:i], c.births[i+1:]...)
			return
		}
	}
}

// minReadyArrival returns the minimum arrival stamp over the core's fresh
// task queue, Inf when it is empty. The queue is bounded by the runtime's
// queue capacity, so it is scanned.
func (c *Core) minReadyArrival() vtime.Time {
	m := vtime.Inf
	for _, t := range c.ready {
		if t.arrival < m {
			m = t.arrival
		}
	}
	return m
}

// pushReady appends a fresh task to the core's queue.
func (c *Core) pushReady(t *Task) { c.ready = append(c.ready, t) }

// popReady removes and returns the head of the fresh task queue.
func (c *Core) popReady() *Task {
	t := c.ready[0]
	c.ready = c.ready[1:]
	return t
}

// QueueLength returns the number of fresh tasks waiting in the core's task
// queue (the quantity bounded by the runtime's queue capacity).
func (c *Core) QueueLength() int { return len(c.ready) }

// NextEventTime returns the earliest virtual time at which the core could
// execute something: its clock while busy, the earliest pending task stamp
// while it only has queued work, and Inf when it is fully idle. Global
// synchronization schemes use it as the core's position in virtual time.
// The scheduler never reads it, so the continuation queue (at most one
// entry deep in the drift studies) is scanned, not cached.
func (c *Core) NextEventTime() vtime.Time {
	if !c.idle {
		return c.vt
	}
	m := c.minReadyArrival()
	for _, t := range c.conts {
		if t.resume < m {
			m = t.resume
		}
	}
	if m == vtime.Inf {
		return m
	}
	return vtime.Max(c.vt, m)
}
