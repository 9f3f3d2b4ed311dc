package core

import (
	"simany/internal/cache"
	"simany/internal/rng"
	"simany/internal/timing"
	"simany/internal/vtime"
)

// Core is the simulation state of one simulated processor core. Inline
// is what picking and stepping read, the first 64 bytes holding what a
// neighbor's pass reads; the rest is a runState allocated on the core's
// first use, so a core that never runs a task costs one 120-byte struct.
type Core struct {
	//simany:derived backpointer, rewired when domains are rebuilt
	dom *domain // execution shard owning this core
	//simany:derived effective-time cache, a function of the encoded clocks and idle flags (refreshEff)
	eff vtime.Time // advertised effective time (vt when busy, shadow memo when idle; Inf when the policy does not relay)
	// Effective-time state (efflazy.go): the memo epoch stamp that
	// validates eff for an idle core and the BFS visited generation.
	effStamp uint64     //simany:derived memo validity stamp vs domain.effEpoch, 0 = stale
	effSeen  uint64     //simany:derived lazyFix visited marker vs domain.effGen, transient per BFS
	vt       vtime.Time // current virtual time (meaningful while busy)
	// links is the core's range of flat link indices (Kernel.neighbors):
	// reading it here spares a neighbor pass a load from the topology's
	// offsets, which a 10⁵-core machine does not keep in cache.
	links   [2]int32 //simany:derived immutable topology offsets, set by New
	idleNb  int32    //simany:derived count of idle same-domain neighbors, a function of the encoded idle flags (schedRebuild)
	idle    bool     // no runnable or stalled resident task
	current *Task    // task that yielded as stalled, resumed first

	ID int // the core index in the topology
	// Speed is the computing-power factor of the core (1.0 for base cores;
	// the paper's polymorphic architectures use 0.5 and 1.5). Computation
	// costs are divided by Speed.
	//
	//simany:derived immutable configuration, reinstated by New from Config
	Speed float64
	k     *Kernel //simany:derived backpointer, wired by New
	// hpos is the core's position in each of its domain's indexed heaps
	// (coreHeap, indexed by run/anchor/stall/stickySlot; -1 = out).
	hpos      [4]int32  //simany:derived heap positions, a function of the encoded queues, clocks and idle flags (schedRebuild)
	lockDepth int       // >0: lock-holder exemption from spatial stalls
	run       *runState // nil until the first task, handled message or L2 install; reads as fresh
}

// runState is the part of a core's state only a used core needs.
type runState struct {
	conts []*Task // unblocked continuations (run before fresh tasks)
	ready []*Task // fresh tasks in arrival order
	// births holds the birth stamps of spawned, not-yet-placed tasks in
	// registration order, which is ascending task ID; measured at most 5
	// deep, so minBirth scans it.
	births []birth
	// taskSeq numbers the tasks this core has spawned (NewTask): only the
	// worker driving the core's shard touches it, so IDs are deterministic.
	taskSeq uint64
	// lastHandled is the latest handled arrival stamp, for the
	// out-of-order statistic; sendNow runs in the destination's shard.
	lastHandled vtime.Time
	// rng is the core's private random stream (seed ^ coreID splitmix), so
	// draws by simulated code do not depend on how shards are scheduled.
	rng   rng.Rand
	timer timing.BlockTimer // its Predictor is prob unless Config.Predict gives one
	//simany:derived storage of the default predictor, encoded through timer.Predictor
	prob timing.ProbabilisticPredictor
	l1   cache.Scoped
	l2   cache.L2
}

// use returns c's run state, allocating it on first use (newRun).
func (c *Core) use() *runState {
	if c.run == nil {
		c.newRun()
	}
	return c.run
}

// newRun gives c its fresh run state from its domain's current chunk of
// 32: like every write to c, it runs in c's shard or the barrier.
func (c *Core) newRun() {
	if len(c.dom.runs) == 0 {
		c.dom.runs = make([]runState, 32)
	}
	c.run, c.dom.runs = &c.dom.runs[0], c.dom.runs[1:]
	c.k.initRun(c.run, c.ID)
}

// initRun sets r to core id's state before its first use: its random
// stream, its predictor (Config.Predict is called here) and empty caches.
func (k *Kernel) initRun(r *runState, id int) {
	*r = runState{rng: *rng.New(splitmix64(uint64(k.seed) ^ uint64(id)))}
	r.timer = timing.BlockTimer{Model: k.costs, Predictor: &r.prob}
	if k.predict != nil {
		r.timer.Predictor = k.predict(id, k.seed)
	} else {
		r.prob = *timing.NewProbabilisticPredictor(k.costs.PredictRate, k.seed+int64(id))
	}
	r.l1 = *cache.NewScoped(cache.DefaultLineSize)
	r.l2 = *cache.NewL2(cache.DefaultLineSize)
}

// peek returns c's run state for reading, the zero one (whose queues,
// stamps and counters are fresh) when c has none. Never write through it.
func (c *Core) peek() *runState {
	if c.run == nil {
		return &c.k.unused
	}
	return c.run
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
	return c.dom.lazyEff(c, 0, vtime.Inf)
}

// Idle reports whether the core has no runnable or stalled resident task.
func (c *Core) Idle() bool { return c.idle }

// LockDepth returns the number of locks currently held by tasks on this
// core.
func (c *Core) LockDepth() int { return c.lockDepth }

// Rand returns the core's private deterministic random source. Simulated
// code (runtime policies, benchmark task bodies) must draw from here so
// results do not depend on the interleaving of shard workers.
// Like the other accessors that hand out mutable run state, it allocates
// that state on first use, so call it from the core's own shard context.
func (c *Core) Rand() *rng.Rand { return &c.use().rng }

// L1 returns the core's pessimistic scoped L1 model.
func (c *Core) L1() *cache.Scoped { return &c.use().l1 }

// L2 returns the core's L2 model (used by the distributed-memory runtime).
func (c *Core) L2() *cache.L2 { return &c.use().l2 }

// EvictL2 removes the lines covering [base, base+bytes) from the core's
// L2. A core not used yet has an empty L2, so there it changes and
// allocates nothing, from any shard's context.
func (c *Core) EvictL2(base uint64, bytes int64) {
	if c.run != nil {
		c.run.l2.Evict(base, bytes)
	}
}

// birth is one outstanding birth stamp of a task spawned by the core.
type birth struct {
	id    uint64
	stamp vtime.Time
}

// minBirth returns the minimum outstanding birth stamp, Inf if none.
func (c *Core) minBirth() vtime.Time {
	m := vtime.Inf
	for _, b := range c.peek().births {
		if b.stamp < m {
			m = b.stamp
		}
	}
	return m
}

// removeBirth discards a birth stamp once the spawned task has been
// placed. The delete keeps the order, so births stays sorted by ID.
func (c *Core) removeBirth(id uint64) {
	r := c.peek()
	for i, b := range r.births {
		if b.id == id { // found: r is c's own state
			r.births = append(r.births[:i], r.births[i+1:]...)
			return
		}
	}
}

// minReadyArrival returns the minimum arrival stamp over the core's fresh
// task queue, Inf when it is empty. The queue is bounded by the runtime's
// queue capacity, so it is scanned.
func (c *Core) minReadyArrival() vtime.Time {
	m := vtime.Inf
	for _, t := range c.peek().ready {
		if t.arrival < m {
			m = t.arrival
		}
	}
	return m
}

// pushReady appends a fresh task to the core's queue.
func (c *Core) pushReady(t *Task) {
	r := c.use()
	r.ready = append(r.ready, t)
}

// popReady removes and returns the head of the fresh task queue.
func (c *Core) popReady() *Task {
	t := c.run.ready[0]
	c.run.ready = c.run.ready[1:]
	return t
}

// QueueLength returns the number of fresh tasks waiting in the core's task
// queue (the quantity bounded by the runtime's queue capacity).
func (c *Core) QueueLength() int { return len(c.peek().ready) }

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
	for _, t := range c.peek().conts {
		if t.resume < m {
			m = t.resume
		}
	}
	if m == vtime.Inf {
		return m
	}
	return vtime.Max(c.vt, m)
}
