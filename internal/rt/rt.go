// Package rt is the task-based run-time system of §IV: a conditional-
// spawning programming model in the spirit of Capsule/TBB layered on the
// simulation kernel.
//
// Programs express parallelism through probe/spawn: a task that wants to
// fork calls SpawnOrRun, which checks the occupancy proxies the runtime
// maintains for the core's neighbors; only if some proxy suggests a free
// task-queue slot is a PROBE message sent. The probed neighbor accepts
// (PROBE_ACK, reserving the slot) or denies (PROBE_NACK); on success the
// task is shipped with TASK_SPAWN and the receiving core broadcasts its new
// queue state to its own neighbors. On denial the code runs sequentially in
// the calling task. Tasks migrate progressively: work is only ever
// dispatched to direct neighbors, and overloaded cores forward queued
// spawns onward.
//
// Coarse synchronization uses task groups: each task termination decrements
// its group's active counter; a task calling Join waits (its context saved,
// freeing the core) for a JOINER_REQUEST notification from the last
// finishing task.
//
// For distributed-memory architectures the runtime manages shared data as
// cells referenced by links: DATA_REQUEST/DATA_RESPONSE messages move cell
// contents into the requesting core's L2, and the cell stays locked for the
// duration of the access (§IV "Semantics and Messages").
package rt

import (
	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/vtime"
)

// Message kinds owned by the runtime.
const (
	KindProbe network.Kind = 100 + iota
	KindProbeAck
	KindProbeNack
	KindTaskSpawn
	KindJoinerRequest
	KindOccUpdate
	KindDataRequest
	KindDataResponse
)

// Options tunes the runtime.
type Options struct {
	// QueueCap is the per-core task-queue capacity probed by PROBE.
	QueueCap int
	// ProbeHandleCost is the virtual time a core's queue controller takes
	// to answer a probe.
	ProbeHandleCost vtime.Time
	// DataHandleCost is the handling time of a data request at the owner.
	DataHandleCost vtime.Time
	// MaxMigrations bounds progressive task migration hops.
	MaxMigrations int
	// SpeedAware enables the heterogeneity-aware dispatch policy the
	// paper's conclusion calls for (§VIII: results on polymorphic
	// machines "could be improved substantially with specific scheduling
	// policies that take into account the computing power disparity among
	// cores"): candidates are ranked by expected queue drain time
	// (occupancy ÷ core speed) instead of raw occupancy, so fast cores
	// receive proportionally more work.
	SpeedAware bool
	// Message sizes in bytes.
	ProbeSize, AckSize, SpawnBaseSize, JoinerSize, OccSize, DataReqSize int
	// RootCore is where Run injects the root task.
	RootCore int
}

// DefaultOptions returns paper-style runtime parameters.
func DefaultOptions() Options {
	return Options{
		QueueCap:        4,
		ProbeHandleCost: vtime.CyclesInt(5),
		DataHandleCost:  vtime.CyclesInt(5),
		MaxMigrations:   4,
		ProbeSize:       16,
		AckSize:         8,
		SpawnBaseSize:   64,
		JoinerSize:      16,
		OccSize:         8,
		DataReqSize:     24,
	}
}

// Stats is a copy of the runtime's counters, which live in the kernel's
// registry under rt.* (see counters).
type Stats struct {
	Spawns     int64 // tasks shipped to another core
	Probes     int64 // PROBE messages sent
	Denied     int64 // probes answered with NACK
	LocalRuns  int64 // conditional spawns executed sequentially
	Migrations int64 // TASK_SPAWN forwards due to overload
	DataReqs   int64 // remote cell requests
	DataChases int64 // requests forwarded to a moved cell
	JoinWaits  int64 // joins that had to block
}

// Runtime is one simulation's task runtime instance.
type Runtime struct {
	k *core.Kernel //simany:derived backpointer to the kernel the runtime is attached to
	//simany:derived immutable Options configuration, reinstated by New
	opt   Options
	alloc *mem.Allocator
	cells *mem.CellStore

	// occ[c][j] = believed queue length of the j-th neighbor of core c
	// (flat and neighbor-indexed — degrees are tiny, so nbIndex's linear
	// scan beats a map lookup and the probe hot path stays allocation-free).
	occ [][]int
	//simany:derived cached topology adjacency, rebuilt by New from the kernel topology
	nbs          [][]int // neighbor lists, indexed like occ
	reservations []int   // outstanding accepted probes per core
	rr           []int   // round-robin candidate cursor per core

	ctr counters //simany:derived aliases into the kernel's registry, whose section encodes them
}

// counters are the runtime's counters in the kernel's registry, striped by
// the shard of the core in whose context each event happens (count).
type counters struct {
	spawns, probes, denied, localRuns, migrations, dataReqs, dataChases, joinWaits *metrics.Counter
}

func newCounters(reg *metrics.Registry) counters {
	c := func(name string) *metrics.Counter { return reg.Counter(name, metrics.UnitCount) }
	return counters{
		spawns:     c("rt.spawns"),
		probes:     c("rt.probes"),
		denied:     c("rt.denied"),
		localRuns:  c("rt.local.runs"),
		migrations: c("rt.migrations"),
		dataReqs:   c("rt.data.reqs"),
		dataChases: c("rt.data.chases"),
		joinWaits:  c("rt.join.waits"),
	}
}

// count adds one event that happened in core's context to c, on the
// stripe of core's shard.
func (r *Runtime) count(c *metrics.Counter, core int) { c.Inc(r.k.ShardOf(core)) }

// taskMeta is the runtime's per-task state, carried in core.Task.Meta. It
// is the one allocation a spawn makes: the body and group every task runs
// with (runTask), the reply to the task's probe, and — while the task
// itself travels in a TASK_SPAWN message — its spawn descriptor. The
// protocol messages carry the *core.Task and nothing else.
type taskMeta struct {
	fn    func(*core.Env)
	group *Group
	probe probeReply
	//simany:derived in-flight spawn state, consumed by onTaskSpawn before the task is placed; checkpoints never see a task in flight
	spawn spawnDesc
}

func metaOf(t *core.Task) *taskMeta {
	m, ok := t.Meta.(*taskMeta)
	if !ok {
		panic("rt: task not managed by this runtime")
	}
	return m
}

// probeReply is the answer to a task's PROBE. The probed core's handler
// writes it into the requester's taskMeta — safe, because that handler runs
// in the requester's shard or in the barrier, and the requester is blocked
// — and the PROBE_ACK/NACK's arrival marks it delivered and wakes the task.
type probeReply struct {
	delivered bool
	ok        bool
	queueLen  int
	from      int
}

// spawnDesc travels with a task shipped by TASK_SPAWN: the spawner's core,
// where the task's birth was registered, and the migrations so far.
type spawnDesc struct {
	birthOwner *core.Core
	hops       int
}

// runTask is the body of every runtime task: the user body in a function
// scope for the pessimistic L1, then the group bookkeeping at termination.
func runTask(e *core.Env) {
	m := metaOf(e.Task())
	e.EnterScope()
	m.fn(e)
	e.LeaveScope()
	if m.group != nil {
		m.group.taskEnded(e)
	}
}

type dataReq struct {
	link      mem.Link
	requester *core.Task
	reqCore   int
}

// New creates a runtime bound to kernel k and registers its message
// handlers. alloc provides simulated addresses for cells.
func New(k *core.Kernel, alloc *mem.Allocator, opt Options) *Runtime {
	if opt.QueueCap <= 0 {
		opt = DefaultOptions()
	}
	if alloc == nil {
		alloc = mem.NewAllocator()
	}
	n := k.NumCores()
	r := &Runtime{
		k:            k,
		opt:          opt,
		alloc:        alloc,
		cells:        mem.NewCellStore(alloc),
		occ:          make([][]int, n),
		nbs:          make([][]int, n),
		reservations: make([]int, n),
		rr:           make([]int, n),
		ctr:          newCounters(k.Metrics()),
	}
	// The per-core occupancy proxies are views into one flat backing array
	// (one int per directed link) rather than n separate slices — at 100k
	// cores the per-core make() calls dominate Runtime construction.
	occFlat := make([]int, k.Topology().NumLinks())
	off := 0
	for i := 0; i < n; i++ {
		r.nbs[i] = k.Topology().Neighbors(i)
		deg := len(r.nbs[i])
		r.occ[i] = occFlat[off : off+deg : off+deg]
		off += deg
	}
	if k.Sharded() {
		// Deterministic cell ids/addresses for concurrent creators.
		r.cells.EnableArenas()
	}
	k.Handle(KindProbe, r.onProbe)
	k.Handle(KindProbeAck, r.onProbeReply)
	k.Handle(KindProbeNack, r.onProbeReply)
	k.Handle(KindTaskSpawn, r.onTaskSpawn)
	k.Handle(KindJoinerRequest, r.onJoinerRequest)
	k.Handle(KindOccUpdate, r.onOccUpdate)
	k.Handle(KindDataRequest, r.onDataRequest)
	k.Handle(KindDataResponse, r.onDataResponse)
	k.SetTaskStartHook(func(c *core.Core, t *core.Task) {
		r.broadcastOcc(c.ID, c.QueueLength(), c.VT())
	})
	k.SetTaskCodec(taskCodec{})
	k.RegisterSnapshot("rt", r)
	return r
}

// Kernel returns the underlying kernel.
func (r *Runtime) Kernel() *core.Kernel { return r.k }

// runAt executes fn in the arbitration context of core home: immediately
// when the calling core shares home's shard (or on the sequential engine),
// deferred to the next barrier otherwise. It is the building block of the
// runtime's home-based ownership protocols (groups, locks, cells): shared
// object state is only ever mutated from its home shard or inside a
// barrier, both of which are single-threaded with respect to that state.
//
//simany:arbiter
func (r *Runtime) runAt(me, home int, stamp vtime.Time, fn func()) {
	if r.k.SameShard(me, home) {
		fn()
		return
	}
	r.k.Defer(me, stamp, fn)
}

// Alloc returns the shared address allocator.
func (r *Runtime) Alloc() *mem.Allocator { return r.alloc }

// Stats returns a copy of the runtime counters. Call from a
// single-threaded context (after Run returns).
func (r *Runtime) Stats() Stats {
	c := &r.ctr
	return Stats{
		Spawns:     c.spawns.Value(),
		Probes:     c.probes.Value(),
		Denied:     c.denied.Value(),
		LocalRuns:  c.localRuns.Value(),
		Migrations: c.migrations.Value(),
		DataReqs:   c.dataReqs.Value(),
		DataChases: c.dataChases.Value(),
		JoinWaits:  c.joinWaits.Value(),
	}
}

// Run injects the root task and drives the simulation to completion. On a
// kernel with a resume armed, root must be the program of the checkpointed
// run: restore re-executes it and verifies the state it reaches.
func (r *Runtime) Run(name string, root func(*core.Env)) (core.Result, error) {
	t := r.k.NewTask(r.opt.RootCore, name, runTask, &taskMeta{fn: root}).ReleaseOnDone()
	r.k.PlaceTask(t, r.opt.RootCore, 0, nil)
	return r.k.Run()
}

// ---------------------------------------------------------------------------
// Conditional spawning

// pickCandidate chooses a neighbor believed to have a free queue slot,
// rotating among candidates for load spreading. Returns -1 if every proxy
// says full. With SpeedAware, occupancies are weighted by the inverse core
// speed so faster cores look emptier (§VIII extension).
func (r *Runtime) pickCandidate(me int) int {
	nbs := r.nbs[me]
	if len(nbs) == 0 {
		return -1
	}
	start := r.rr[me]
	r.rr[me]++
	best := -1
	bestScore := float64(r.opt.QueueCap)
	for i := 0; i < len(nbs); i++ {
		j := (start + i) % len(nbs)
		nb := nbs[j]
		occ := r.occ[me][j]
		if occ >= r.opt.QueueCap {
			continue
		}
		score := float64(occ)
		if r.opt.SpeedAware {
			// Expected drain time of the neighbor's queue: a 1.5x core
			// with 3 queued tasks beats a 0.5x core with 1.
			score = (float64(occ) + 1) / r.k.Core(nb).Speed
		}
		if best < 0 || score < bestScore {
			best, bestScore = nb, score
		}
	}
	return best
}

// SpawnOrRun is the conditional-spawn primitive (§IV): it tries to ship fn
// as a new task of group g to a neighboring core and, if the probe fails or
// no neighbor looks free, executes fn sequentially in the current task. It
// reports whether a task was spawned. argBytes sizes the TASK_SPAWN payload
// beyond the runtime's base task descriptor.
func (r *Runtime) SpawnOrRun(e *core.Env, g *Group, name string, argBytes int, fn func(*core.Env)) bool {
	me := e.CoreID()
	cand := r.pickCandidate(me)
	if cand < 0 {
		// Proxy check only: cheap, no traffic.
		e.ComputeCycles(2)
		r.count(r.ctr.localRuns, me)
		r.runInline(e, fn)
		return false
	}
	r.count(r.ctr.probes, me)
	meta := metaOf(e.Task())
	e.Send(cand, KindProbe, r.opt.ProbeSize, e.Task())
	e.Block()
	rep := meta.probe
	meta.probe = probeReply{}
	if !rep.delivered {
		panic("rt: probe reply lost")
	}
	fromIdx := r.nbIndex(me, rep.from)
	r.occ[me][fromIdx] = rep.queueLen
	if !rep.ok {
		r.count(r.ctr.denied, me)
		r.count(r.ctr.localRuns, me)
		r.runInline(e, fn)
		return false
	}
	birth := e.Now()
	// The counter increment is enqueued before the TASK_SPAWN below with an
	// earlier-or-equal stamp, so the home shard always applies it before the
	// child can be placed (let alone terminate).
	g.addFrom(me, birth, 1)
	owner := r.k.Core(me)
	child := r.k.NewTask(me, name, runTask,
		&taskMeta{fn: fn, group: g, spawn: spawnDesc{birthOwner: owner}}).ReleaseOnDone()
	r.k.RegisterBirth(owner, child, birth)
	r.occ[me][fromIdx] = rep.queueLen + 1
	e.Send(cand, KindTaskSpawn, r.opt.SpawnBaseSize+argBytes, child)
	r.count(r.ctr.spawns, me)
	return true
}

// runInline executes a would-be task body sequentially within the caller.
func (r *Runtime) runInline(e *core.Env, fn func(*core.Env)) {
	e.EnterScope()
	fn(e)
	e.LeaveScope()
}

// onProbe answers a slot reservation request. The probed core's hardware
// queue controller replies without involving the tasks running there
// (Capsule-style hardware-assisted task management, §IV).
//
// The payload is the requesting task, which runs on msg.Src; the reply
// goes back with it and is written into its taskMeta here.
func (r *Runtime) onProbe(k *core.Kernel, msg network.Message) {
	requester := msg.Payload.(*core.Task)
	c := k.Core(msg.Dst)
	qlen := c.QueueLength() + r.reservations[msg.Dst]
	kind := KindProbeNack
	ok := qlen < r.opt.QueueCap
	if ok {
		r.reservations[msg.Dst]++
		kind = KindProbeAck
	}
	metaOf(requester).probe = probeReply{ok: ok, queueLen: qlen, from: msg.Dst}
	k.SendAt(msg.Dst, msg.Src, kind, r.opt.AckSize, requester, msg.Arrival+r.opt.ProbeHandleCost)
}

// onProbeReply delivers the probe outcome to the requesting task.
func (r *Runtime) onProbeReply(k *core.Kernel, msg network.Message) {
	requester := msg.Payload.(*core.Task)
	metaOf(requester).probe.delivered = true
	k.Unblock(requester, msg.Arrival)
}

// onTaskSpawn receives a shipped task. An overloaded core forwards the task
// to its least-loaded neighbor ("tasks can progressively migrate to other
// cores if the local ones are overloaded", §IV), bounded by MaxMigrations.
func (r *Runtime) onTaskSpawn(k *core.Kernel, msg network.Message) {
	task := msg.Payload.(*core.Task)
	sm := &metaOf(task).spawn
	dst := msg.Dst
	c := k.Core(dst)
	if r.reservations[dst] > 0 {
		r.reservations[dst]--
	}
	if c.QueueLength() >= r.opt.QueueCap && sm.hops < r.opt.MaxMigrations {
		// Migrate onward to the neighbor believed least loaded.
		best, bestOcc := -1, int(^uint(0)>>1)
		for j, nb := range r.nbs[dst] {
			if nb == msg.Src {
				continue
			}
			if occ := r.occ[dst][j]; occ < bestOcc {
				best, bestOcc = nb, occ
			}
		}
		if best >= 0 {
			sm.hops++
			r.count(r.ctr.migrations, dst)
			k.SendAt(dst, best, KindTaskSpawn, msg.Size, task,
				msg.Arrival+r.opt.ProbeHandleCost)
			return
		}
	}
	k.PlaceTask(task, dst, msg.Arrival, sm.birthOwner)
	r.broadcastOcc(dst, c.QueueLength(), msg.Arrival)
}

// broadcastOcc sends the core's new queue occupancy to its neighbors.
func (r *Runtime) broadcastOcc(coreID, qlen int, at vtime.Time) {
	for _, nb := range r.nbs[coreID] {
		r.k.SendAt(coreID, nb, KindOccUpdate, r.opt.OccSize, qlen, at)
	}
}

// nbIndex returns the position of nb in c's neighbor list. Occupancy
// traffic only ever flows between topology neighbors, so a miss is a bug.
func (r *Runtime) nbIndex(c, nb int) int {
	for j, id := range r.nbs[c] {
		if id == nb {
			return j
		}
	}
	panic("rt: occupancy update from non-neighbor")
}

// onOccUpdate refreshes the receiving core's proxy of the sender's queue.
func (r *Runtime) onOccUpdate(k *core.Kernel, msg network.Message) {
	r.occ[msg.Dst][r.nbIndex(msg.Dst, msg.Src)] = msg.Payload.(int)
}
