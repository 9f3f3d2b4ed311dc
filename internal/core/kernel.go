package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"simany/internal/cache"
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/rng"
	"simany/internal/snap"
	"simany/internal/timing"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// MemSystem is the memory hierarchy consulted by Env.Read/Env.Write.
// Implementations live in internal/mem (SiMany's abstract models) and
// internal/cyclelevel (the detailed reference models).
type MemSystem interface {
	// Access performs n accesses of elem bytes at base by core c at
	// virtual time now and returns the virtual delay to charge the core.
	Access(c *Core, base uint64, n int64, elem int, write bool, now vtime.Time) vtime.Time
}

// NullMem charges nothing for memory accesses; useful for pure-compute
// tests.
type NullMem struct{}

// Access implements MemSystem.
func (NullMem) Access(*Core, uint64, int64, int, bool, vtime.Time) vtime.Time { return 0 }

// ShardSafe implements ShardSafeMem: NullMem is stateless.
func (NullMem) ShardSafe() bool { return true }

// MeteredMem is a memory system with counters of its own (cache hits and
// misses, coherence actions): New hands it the kernel's registry and core
// count once, to register them by name. It serves one kernel.
type MeteredMem interface {
	RegisterMetrics(reg *metrics.Registry, cores int)
}

// ShardSafeMem is implemented by memory systems whose Access method only
// mutates state owned by the accessing core (its L1/L2), making them safe
// to drive from concurrent shard workers. A configuration asking for more
// than one shard with a memory system that does not implement it (or
// returns false) is refused (Config.CheckShards).
type ShardSafeMem interface {
	ShardSafe() bool
}

// Handler processes an architectural message arriving at msg.Dst. Handlers
// run synchronously at send time, operate on virtual timestamps only and
// must not block.
type Handler func(k *Kernel, msg network.Message)

// Config assembles a simulated machine.
type Config struct {
	// Topo is the interconnection network. Required.
	Topo *topology.Topology
	// Policy is the synchronization scheme. Defaults to Spatial{T: 100
	// cycles}, the paper's reference configuration.
	Policy Policy
	// Predict builds the per-core branch predictor; defaults to the
	// paper's 90% probabilistic predictor.
	Predict func(coreID int, seed int64) timing.Predictor
	// Mem is the memory system; defaults to NullMem.
	Mem MemSystem
	// Speeds gives per-core computing-power factors (nil = homogeneous
	// 1.0).
	Speeds []float64
	// Seed makes the run reproducible.
	Seed int64
	// MaxSteps aborts runaway simulations (0 = no limit).
	MaxSteps int64
	// Tracer, when set, receives simulator trace events (see TraceEvent).
	// Tracing is shard-safe: on the sharded engine events are buffered per
	// shard and merged deterministically at each virtual-time barrier, so a
	// tracer never forces the sequential engine.
	Tracer Tracer
	// Metrics, when set, is the kernel's registry, the one stats root
	// every component registers its counters in (nil: the kernel makes
	// its own). A registry set here also records the histograms and
	// barrier instruments (link waits, message latency, barrier stall,
	// drift spread; docs/observability.md). It serves one kernel.
	Metrics *metrics.Registry

	// Shards partitions the topology into contiguous regions, each driven
	// by its own local scheduling loop with cross-shard traffic exchanged
	// at deterministic barriers. Shards defines the event semantics: for a
	// fixed seed and shard count the Result is identical regardless of
	// Workers or host scheduling. Shards=1 (the default, also used when 0)
	// reproduces the original sequential kernel bit-for-bit. The kernel
	// runs exactly the count asked for or refuses it (CheckShards): above
	// the core count, or above 1 with a policy that is not shard-local or
	// a memory system that is not shard-safe. Tracers and metrics are
	// shard-safe (see Tracer).
	Shards int
	// Workers is the number of host threads driving the shards
	// (0 = runtime.NumCPU(), capped at Shards). Workers only adds host
	// parallelism; it never changes the Result.
	Workers int
}

// CheckShards reports why the kernel cannot run the configuration's
// Shards and Workers as given, or nil when it can: a negative count, more
// shards than cores, or more than one shard under a policy that is not
// shard-local (ShardLocalPolicy) or a memory system that is not
// shard-safe (ShardSafeMem). A nil Policy or Mem stands for the defaults,
// Spatial and NullMem, which are both. New panics with the same error.
func (cfg Config) CheckShards() error {
	if cfg.Shards < 0 {
		return fmt.Errorf("core: negative shard count Shards = %d", cfg.Shards)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("core: negative worker count Workers = %d", cfg.Workers)
	}
	if cfg.Shards <= 1 {
		return nil
	}
	if cfg.Topo != nil && cfg.Shards > cfg.Topo.N() {
		return fmt.Errorf("core: Shards = %d exceeds the %d cores (one shard per core at most)", cfg.Shards, cfg.Topo.N())
	}
	if cfg.Policy != nil {
		if p, ok := cfg.Policy.(ShardLocalPolicy); !ok || !p.ShardLocal() {
			return fmt.Errorf("core: Shards = %d needs a shard-local policy (ShardLocalPolicy); policy %q is not", cfg.Shards, cfg.Policy.Name())
		}
	}
	if cfg.Mem != nil {
		if m, ok := cfg.Mem.(ShardSafeMem); !ok || !m.ShardSafe() {
			return fmt.Errorf("core: Shards = %d needs a shard-safe memory system (ShardSafeMem); the configured one is not", cfg.Shards)
		}
	}
	return nil
}

// DefaultT is the paper's reference maximum local drift (100 cycles).
//
//lint:allow snapshotsafe immutable configuration default, read only at kernel construction
var DefaultT = vtime.CyclesInt(100)

// The scheduling overheads of §V: starting a task on a core, in addition
// to the spawn message's transit time, and switching to a joining task
// that resumes execution.
const (
	taskStartCost = 10 * vtime.Cycle
	ctxSwitchCost = 15 * vtime.Cycle
)

// Kernel is the discrete-event simulator.
type Kernel struct {
	cores []*Core //simany:derived serialized through their owning domains
	//simany:derived immutable topology, reconstructed by New from Config
	topo *topology.Topology
	net  *network.Model
	//simany:derived scheduling policy is stateless configuration, reinstated by New
	policy Policy
	//simany:derived memory system from Config; its timing state lives in the per-core caches, which are encoded — a coherence directory is not, and is not compared
	mem MemSystem
	//simany:derived registered handler table (configuration), repopulated before Run
	handlers map[network.Kind]Handler

	// Execution engine state: the machine is split into one or more
	// domains (shards). The sequential engine uses a single domain; the
	// sharded engine runs the domains on worker goroutines between
	// deterministic barriers (see shard.go).
	domains []*domain
	//simany:derived partition map, recomputed by setupEngine from (topology, shards)
	part    []int      // core ID -> domain index
	sharded bool       //simany:derived engine configuration, reinstated by New (len(domains) > 1, which the fingerprint mixes)
	workers int        //simany:derived engine configuration, reinstated by New
	quantum vtime.Time //simany:derived engine configuration, reinstated by New
	//simany:derived transient: checkpoints only happen outside barriers
	inBarrier bool

	// onPick, when set, observes every scheduling decision — the core,
	// its key and the runnable count sampled with it (test hook; called
	// from the worker driving the picked core's domain).
	onPick func(c *Core, key vtime.Time, runnable int)

	// localPolicy records that the policy is shard-local
	// (ShardLocalPolicy): its horizons are pure, so they may be cached
	// between invalidations and may drive the sharded engine.
	localPolicy bool //simany:derived policy-derived configuration, reinstated by New

	// Effective-time evaluation (efflazy.go): effLazy records that the
	// policy is Spatial, whose idle cores relay effective times, so the
	// kernel maintains them — lazily, from the busy frontier; relayDelta
	// is the per-hop relay increment, Spatial.T.
	effLazy    bool       //simany:derived policy-derived configuration, reinstated by New
	relayDelta vtime.Time //simany:derived policy-derived configuration, reinstated by New

	// Barrier scratch buffers, reused across rounds: the merged deferred
	// items drained at each barrier and the visiting order of the global
	// effective-time refresh.
	barrierItems []deferredItem //simany:derived barrier scratch, empty between rounds
	effOrder     []*Core        //simany:derived refresh scratch, empty between rounds

	steps atomic.Int64
	//simany:derived step budget from Config, reinstated by New
	maxSteps int64

	panicMu sync.Mutex
	//simany:derived a panicked kernel refuses Checkpoint; always nil when one is taken
	taskPanic error

	// Checkpoint machinery (snapshot.go). The engine position is the
	// step count on both engines. stopAfter, when non-zero, pauses the
	// engine (Run returns ErrPaused) once the position reaches it — at
	// the next barrier on the sharded engine; paused records that the
	// kernel sits at such a quiescent point, the only state where
	// Checkpoint is legal. resume holds a parsed checkpoint armed by
	// ArmResume, consumed by the next Run. fprint is the configuration
	// fingerprint embedded in checkpoint files.
	stopAfter int64
	paused    bool
	resume    *snap.Container
	fprint    uint64
	// taskCodec serializes task Meta for the layer that owns it
	// (SetTaskCodec); extSnaps are externally registered checkpoint
	// sections (RegisterSnapshot), written in registration order.
	taskCodec TaskCodec
	extSnaps  []namedSnap

	// bcheck, when non-nil, arms continuous barrier validation (see
	// barriercheck.go). diam caches Topology.Diameter (-2 = not computed).
	bcheck *barrierCheck //simany:derived validation harness, re-armed by EnableBarrierValidation
	diam   int           //simany:derived cached Topology.Diameter, lazily recomputed (-2 = unset)

	// onTaskStart, when set, runs right after a fresh task is popped from
	// a core's queue (the task runtime broadcasts queue occupancy here).
	onTaskStart func(c *Core, t *Task)

	// reg is the root registry (Kernel.Metrics) and ctr the kernel's own
	// always-on counters in it (metrics.go).
	reg *metrics.Registry
	ctr counters //simany:derived aliases into reg, whose section encodes them

	tracer   Tracer
	traceSeq uint64 //simany:derived observability state, reproduced by the replay, never compared
	// traceMerge is the scratch slice flushTrace reuses to merge the
	// per-shard trace buffers at each barrier.
	//
	//simany:derived merge scratch, contents dead between flushTrace calls
	traceMerge []TraceEvent

	// met, when non-nil, holds the instruments recorded only into a
	// caller-supplied registry (see metrics.go).
	met *kernelMetrics //simany:derived observability state, reproduced by the replay, never compared
}

// splitmix64 is the SplitMix64 finalizer, used to decorrelate per-core
// random streams derived from a single user seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fingerprint hashes the configuration fields that define the simulation's
// event semantics. A checkpoint is only resumable into a kernel with the
// same fingerprint; Workers is deliberately excluded because it never
// affects results.
func fingerprint(cfg Config, shards int) uint64 {
	h := splitmix64(uint64(cfg.Seed))
	mix := func(v uint64) { h = splitmix64(h ^ v) }
	mix(uint64(cfg.Topo.N()))
	// The shard count the engine runs (Shards: 0 runs one shard); it
	// alone decides the engine.
	mix(uint64(shards))
	// The topology's shape and link parameters define routes and message
	// timing; the name covers the shape for the bundled flat constructors,
	// and hierarchical topologies additionally mix every tier's mesh
	// dimensions, link parameters and boundary penalty.
	for _, b := range []byte(cfg.Topo.Name()) {
		mix(uint64(b))
	}
	if hier := cfg.Topo.Hierarchy(); hier != nil {
		for _, tr := range hier.Tiers {
			mix(uint64(tr.W))
			mix(uint64(tr.H))
			//lint:allow rawvtime fingerprint hashing of tier link-latency configuration
			mix(uint64(tr.Lat))
			mix(uint64(tr.BW))
			//lint:allow rawvtime fingerprint hashing of tier boundary-penalty configuration
			mix(uint64(tr.Penalty))
		}
	}
	mix(uint64(cfg.MaxSteps))
	for _, b := range []byte(cfg.Policy.Name()) {
		mix(uint64(b))
	}
	if sp, ok := cfg.Policy.(Spatial); ok {
		//lint:allow rawvtime fingerprint hashing of the policy's drift bound constant
		mix(uint64(sp.T))
	}
	for _, s := range cfg.Speeds {
		mix(uint64(int64(s * 1e6)))
	}
	return h
}

// New builds a kernel from a configuration. It panics on a configuration
// it cannot run as given: a nil Topo, bad Speeds, or a Shards/Workers
// request CheckShards refuses.
func New(cfg Config) *Kernel {
	if cfg.Topo == nil {
		panic("core: Config.Topo is required")
	}
	if err := cfg.CheckShards(); err != nil {
		panic(err.Error())
	}
	if cfg.Policy == nil {
		cfg.Policy = Spatial{T: DefaultT}
	}
	costs := timing.PPC405()
	if cfg.Predict == nil {
		rate := costs.PredictRate
		cfg.Predict = func(coreID int, seed int64) timing.Predictor {
			return timing.NewProbabilisticPredictor(rate, seed+int64(coreID))
		}
	}
	if cfg.Mem == nil {
		cfg.Mem = NullMem{}
	}
	n := cfg.Topo.N()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	k := &Kernel{
		topo:     cfg.Topo,
		reg:      reg,
		ctr:      newCounters(reg, n),
		policy:   cfg.Policy,
		mem:      cfg.Mem,
		handlers: make(map[network.Kind]Handler),
		maxSteps: cfg.MaxSteps,
		tracer:   cfg.Tracer,
		diam:     -2,
	}
	// Per-core state is carved out of flat backing arrays — the Core
	// structs themselves and their timing machinery — so a 100k-core
	// machine costs a handful of large allocations instead of ~6 heap
	// objects per core.
	k.cores = make([]*Core, n)
	backing := make([]Core, n)
	timers := make([]timing.BlockTimer, n)
	l1s := make([]cache.Scoped, n)
	l2s := make([]cache.L2, n)
	for i := 0; i < n; i++ {
		speed := 1.0
		if cfg.Speeds != nil {
			if len(cfg.Speeds) != n {
				panic("core: Speeds length must match core count")
			}
			speed = cfg.Speeds[i]
			if speed <= 0 {
				panic("core: non-positive core speed")
			}
		}
		timers[i] = *timing.NewBlockTimer(costs, cfg.Predict(i, cfg.Seed))
		l1s[i] = *cache.NewScoped(cache.DefaultLineSize)
		l2s[i] = *cache.NewL2(cache.DefaultLineSize)
		c := &backing[i]
		*c = Core{
			ID:        i,
			Speed:     speed,
			k:         k,
			idle:      true,
			eff:       vtime.Inf,
			neighbors: cfg.Topo.Neighbors(i),
			timer:     &timers[i],
			l1:        &l1s[i],
			l2:        &l2s[i],
			hpos:      [3]int32{-1, -1, -1},
			rng:       *rng.New(splitmix64(uint64(cfg.Seed) ^ uint64(i))),
		}
		k.cores[i] = c
	}
	k.setupEngine(cfg)
	if m, ok := cfg.Mem.(MeteredMem); ok {
		m.RegisterMetrics(reg, n)
	}
	k.fprint = fingerprint(cfg, len(k.domains))
	return k
}

// setupEngine resolves the Shards/Workers knobs (New has checked them)
// and builds the execution domains.
func (k *Kernel) setupEngine(cfg Config) {
	p, ok := k.policy.(ShardLocalPolicy)
	k.localPolicy = ok && p.ShardLocal()
	shards := max(cfg.Shards, 1)
	k.sharded = shards > 1

	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > shards {
		workers = shards
	}
	k.workers = workers

	// Spatial is the one policy whose idle cores relay "min neighbor + T"
	// (§II.A), so the kernel maintains effective times under it alone; its
	// T is the per-hop relay increment and sets the round quantum. A
	// non-positive T is rejected: the relay rule then has no unique
	// fixpoint (idle cores could sustain each other's stale times), and a
	// negative one hands out horizons behind the slowest neighbor.
	t := DefaultT
	if sp, ok := k.policy.(Spatial); ok {
		if sp.T <= 0 {
			panic(fmt.Sprintf("core: policy %q relays idle effective times with non-positive delta %v", sp.Name(), sp.T))
		}
		k.effLazy, k.relayDelta, t = true, sp.T, sp.T
	}
	k.quantum = 8 * t

	k.part = topology.PartitionFor(k.topo, shards)
	k.reg.SetShards(shards)
	k.net = network.NewIn(k.reg, k.part, k.topo, network.DefaultParams())
	k.domains = make([]*domain, shards)
	for s := 0; s < shards; s++ {
		k.domains[s] = &domain{
			k:       k,
			id:      s,
			blocked: make(map[uint64]*Task),
			limit:   vtime.Inf,
			// Effective-time bookkeeping starts at the all-idle machine:
			// no anchors, infinite floor, epoch 1 so the zero memo stamps
			// are stale (efflazy.go).
			busyList:    coreHeap{slot: anchorSlot},
			sq:          coreHeap{slot: stallSlot, byID: true},
			effEpoch:    1,
			shapeEpoch:  1,
			frozenFloor: vtime.Inf,
		}
	}
	for i, c := range k.cores {
		d := k.domains[k.part[i]]
		c.dom = d
		d.cores = append(d.cores, c)
	}
	for _, d := range k.domains {
		d.rq = runq{coreHeap: coreHeap{slot: runSlot, byID: true}, d: d, limit: vtime.Inf}
	}
	if k.effLazy {
		if k.sharded {
			k.setupEff()
		}
		// Valid idle-neighbor counts from the start: Validate may run on a
		// kernel that has never entered an engine loop.
		for _, d := range k.domains {
			d.rebuildIdleNb()
		}
	}
	if cfg.Metrics != nil {
		k.met = newKernelMetrics(cfg.Metrics, shards)
		k.net.SetObserver(netObserver{k})
	}
}

// schedRebuild recomputes every domain's runnable queues from scratch.
// Run() calls it once before entering an engine loop; all maintenance
// after that is incremental.
func (k *Kernel) schedRebuild() {
	for _, d := range k.domains {
		if k.effLazy {
			// The idle-neighbor counts route stalled cores between the
			// two heaps, so they must be exact before either rebuild.
			d.rebuildIdleNb()
		}
		d.rq.rebuild()
		d.rebuildStallq()
	}
}

// Core returns core i.
func (k *Kernel) Core(i int) *Core { return k.cores[i] }

// NumCores returns the machine size.
func (k *Kernel) NumCores() int { return len(k.cores) }

// Topology returns the interconnect topology.
func (k *Kernel) Topology() *topology.Topology { return k.topo }

// Network returns the interconnect model.
func (k *Kernel) Network() *network.Model { return k.net }

// Policy returns the active synchronization policy.
func (k *Kernel) Policy() Policy { return k.policy }

// Sharded reports whether the kernel runs on the sharded parallel engine.
func (k *Kernel) Sharded() bool { return k.sharded }

// NumShards returns the number of execution domains (1 on the sequential
// engine).
func (k *Kernel) NumShards() int { return len(k.domains) }

// Workers returns the number of host threads driving the shards.
func (k *Kernel) Workers() int { return k.workers }

// ShardOf returns the shard that drives core i: the counter stripe an
// event in core i's context writes.
func (k *Kernel) ShardOf(i int) int { return k.part[i] }

// SameShard reports whether cores a and b belong to the same shard (always
// true on the sequential engine).
func (k *Kernel) SameShard(a, b int) bool { return k.part[a] == k.part[b] }

// Handle registers the handler for a message kind. Registering twice for
// the same kind panics: message kinds are owned by exactly one layer.
func (k *Kernel) Handle(kind network.Kind, h Handler) {
	if _, dup := k.handlers[kind]; dup {
		panic(fmt.Sprintf("core: duplicate handler for message kind %d", kind))
	}
	k.handlers[kind] = h
}

// send routes a message toward its destination. On the sequential engine —
// and for sharded execution whenever source, destination and the full
// route share one shard — the message is routed in place and the
// destination handler runs synchronously. A cross-shard message is
// deferred to the next barrier instead, where it is routed and handled in
// deterministic (stamp, source) order (the stamps embedded in handler
// replies carry the timing).
//
// The message is built once, on the sender's stack, and only its pointer
// travels down to network.Model.Transmit; the handler receives one copy.
// Passing the handler a pointer instead would make it escape through the
// Handler func value — one heap allocation per message.
func (k *Kernel) send(msg *network.Message) {
	if k.sharded && !k.inBarrier && !k.net.RouteWithin(msg.Src, msg.Dst, k.part) {
		k.domains[k.part[msg.Src]].enqueueMsg(msg)
		return
	}
	k.sendNow(msg)
}

// sendNow routes a message in place and immediately runs the destination
// handler. It always executes in the context of the shard owning the full
// route (intra-shard deliveries run on that shard's worker, cross-shard
// ones inside the single-threaded barrier), so the per-destination arrival
// bookkeeping and the per-shard handled counters need no atomics.
func (k *Kernel) sendNow(msg *network.Message) {
	k.net.Transmit(msg)
	h, ok := k.handlers[msg.Kind]
	if !ok {
		panic(fmt.Sprintf("core: no handler for message kind %d", msg.Kind))
	}
	dst := k.cores[msg.Dst]
	k.ctr.handled.Inc(dst.dom.id)
	if msg.Arrival < dst.lastHandled {
		k.ctr.ooo.Inc(dst.dom.id)
	} else {
		dst.lastHandled = msg.Arrival
	}
	if k.tracer != nil {
		k.emit(TraceSend, msg.Stamp, msg.Src, nil, int64(msg.Dst))
		k.emit(TraceHandle, msg.Arrival, msg.Dst, nil, int64(msg.Src))
	}
	if k.met != nil {
		// Striped by the source's shard: intra-shard deliveries run on the
		// worker driving that shard, cross-shard ones in the barrier.
		k.met.msgLatency.ObserveTime(k.part[msg.Src], msg.Arrival-msg.Stamp)
	}
	h(k, *msg)
}

// SendAt emits a message on behalf of core src at an explicit stamp; used
// by handlers to reply (stamp = arrival + handling cost).
func (k *Kernel) SendAt(src, dst int, kind network.Kind, size int, payload any, stamp vtime.Time) {
	// Field by field: a composite literal would be built in a temporary
	// and copied into msg.
	var msg network.Message
	msg.Src, msg.Dst, msg.Kind, msg.Size, msg.Payload, msg.Stamp = src, dst, kind, size, payload, stamp
	k.send(&msg)
}

// Defer schedules fn to run at the next shard barrier, in deterministic
// (stamp, src) order relative to all other deferred work. src must be a
// core of the shard executing the calling code — the shard whose outbox
// receives the item. On the sequential engine (and inside a barrier) fn
// runs immediately. Layers above the kernel use Defer to mutate state
// owned by another shard without racing its worker.
//
//simany:arbiter
func (k *Kernel) Defer(src int, stamp vtime.Time, fn func()) {
	if !k.sharded || k.inBarrier {
		fn()
		return
	}
	k.domains[k.part[src]].enqueueOp(src, stamp, fn)
}

// NewTask allocates a task executing fn on behalf of spawner (the core in
// whose shard context the caller runs — for setup-time creation, the core
// the task will be placed on). The task is not yet placed; use PlaceTask
// (or InjectTask for simulation entry points).
//
// IDs encode (per-spawner sequence, spawner): unique across cores, and —
// because each per-core counter is only advanced from its own shard's
// execution context — deterministic at every worker count, so task IDs in
// trace streams are stable. Their numeric order is still not meaningful
// under sharded execution.
//
// The struct comes from the spawner's domain pool when a ReleaseOnDone
// task has retired there (fully reset under the new identity); pool reuse
// never influences scheduling, so recycled and fresh tasks behave
// identically.
func (k *Kernel) NewTask(spawner int, name string, fn func(*Env), meta any) *Task {
	c := k.cores[spawner]
	c.taskSeq++
	id := c.taskSeq*uint64(len(k.cores)) + uint64(spawner) + 1
	d := c.dom
	if n := len(d.freeTasks); n > 0 {
		t := d.freeTasks[n-1]
		d.freeTasks[n-1] = nil
		d.freeTasks = d.freeTasks[:n-1]
		t.ID, t.Name, t.Meta, t.fn = id, name, meta, fn
		return t
	}
	return &Task{ID: id, Name: name, Meta: meta, fn: fn}
}

// PlaceTask queues task t on core as a fresh ready task that may start at
// stamp arrival. birthOwner, if non-nil, is the spawning core whose birth
// entry (registered with RegisterBirth) is discarded now that the task has
// arrived at its final destination (§II.A: the run-time system informs the
// parent's core that it can discard the corresponding birth date). The
// birth therefore constrains the parent only across the probe/spawn/
// migration window; removing it any later can produce stall cycles between
// mutually-spawning cores. PlaceTask must run in the context of the shard
// owning coreID (handlers naturally do: they run where the message lands).
func (k *Kernel) PlaceTask(t *Task, coreID int, arrival vtime.Time, birthOwner *Core) {
	c := k.cores[coreID]
	t.core = c
	t.arrival = arrival
	t.state = TaskReady
	t.env = Env{k: k, t: t, c: c}
	c.pushReady(t)
	c.dom.live++
	c.dom.schedUpdate(c)
	if birthOwner != nil {
		if !k.inBarrier && k.part[birthOwner.ID] != k.part[coreID] {
			id := t.ID
			k.Defer(coreID, arrival, func() { k.clearBirth(birthOwner, id) })
		} else {
			k.clearBirth(birthOwner, t.ID)
		}
	}
}

// clearBirth discards a birth entry and re-widens the horizon of whatever
// runs on the spawning core.
func (k *Kernel) clearBirth(c *Core, taskID uint64) {
	c.removeBirth(taskID)
	if c.current != nil {
		c.current.env.horizon = k.horizonFor(c)
		// A widened horizon can make a stalled spawner runnable again.
		c.dom.schedUpdate(c)
	}
}

// policyHorizon is the horizon of core c under the policy, with the
// lock-holder exemption (§II.B) applied first: a core holding a lock runs
// until it releases it, whatever the scheme, so Fig. 4's deadlock cannot
// occur. It is the only place the kernel asks the policy.
func (k *Kernel) policyHorizon(c *Core) vtime.Time {
	if c.lockDepth > 0 {
		return vtime.Inf
	}
	return k.policy.Horizon(c)
}

// horizonFor evaluates the policy horizon for c, capped by the shard round
// limit while a round is in progress (frozen cross-shard proxies are only
// trustworthy up to the round quantum).
func (k *Kernel) horizonFor(c *Core) vtime.Time {
	h := k.policyHorizon(c)
	if c.dom != nil && h > c.dom.limit {
		h = c.dom.limit
	}
	return h
}

// SetTaskStartHook registers a callback invoked whenever a fresh task is
// popped from a core's queue and starts executing. The task runtime uses it
// to broadcast the core's new queue occupancy to its neighbors (§IV).
func (k *Kernel) SetTaskStartHook(f func(c *Core, t *Task)) { k.onTaskStart = f }

// RegisterBirth records, on spawning core c, the birth stamp of a task
// that has been (or is about to be) placed elsewhere, and immediately
// tightens the horizon of the task currently running on c so the spatial
// drift bound of §II.A (Fig. 3) takes effect mid-block-sequence. The entry
// is discarded automatically when the spawned task starts (PlaceTask's
// birthOwner).
func (k *Kernel) RegisterBirth(c *Core, spawned *Task, stamp vtime.Time) {
	c.births = append(c.births, birth{spawned.ID, stamp})
	if c.current != nil {
		c.current.env.horizon = k.horizonFor(c)
		// A tightened horizon can park a stalled core (defensive: births
		// are normally registered by the core's own running task, whose
		// post-step update settles the entry anyway).
		c.dom.schedUpdate(c)
	}
}

// InjectTask creates and places a root task (simulation entry point).
func (k *Kernel) InjectTask(coreID int, name string, fn func(*Env), meta any, at vtime.Time) *Task {
	t := k.NewTask(coreID, name, fn, meta)
	k.PlaceTask(t, coreID, at, nil)
	return t
}

// Unblock marks a blocked task runnable again from virtual time at. It is
// called by message handlers (e.g. when a reply or join notification
// arrives). Under sharded execution it must run in the context of the
// shard owning the task's core (or inside a barrier); cross-shard wakes go
// through UnblockFrom.
func (k *Kernel) Unblock(t *Task, at vtime.Time) {
	//lint:allow rawvtime TraceEvent.Aux is a kind-discriminated raw int64 payload; TraceUnblock defines it as millicycles
	k.emit(TraceUnblock, at, t.core.ID, t, int64(at))
	switch t.state {
	case TaskBlocked:
		delete(t.core.dom.blocked, t.ID)
		t.state = TaskReady
		t.resume = at
		t.core.conts = append(t.core.conts, t)
		t.core.dom.schedUpdate(t.core)
	case TaskRunning:
		// The wake-up raced ahead of the Block call (handlers run
		// synchronously); record it so Block returns immediately.
		if t.pendingWake {
			panic(fmt.Sprintf("core: double Unblock of running task %q", t.Name))
		}
		t.pendingWake = true
		t.resume = at
	default:
		panic(fmt.Sprintf("core: Unblock of task %q in state %d", t.Name, t.state))
	}
}

// UnblockFrom wakes t from virtual time at on behalf of code executing in
// core src's shard. Same-shard (and barrier) wakes apply immediately;
// cross-shard wakes are deferred to the next barrier so only the owning
// shard ever mutates the task's core.
func (k *Kernel) UnblockFrom(src int, t *Task, at vtime.Time) {
	if k.inBarrier || k.part[src] == k.part[t.core.ID] {
		k.Unblock(t, at)
		return
	}
	k.Defer(src, at, func() { k.Unblock(t, at) })
}

// setPanic records the run's first failure: a task panic (host workers
// may race to report) or the engine's own terminal error.
func (k *Kernel) setPanic(err error) {
	k.panicMu.Lock()
	if k.taskPanic == nil {
		k.taskPanic = err
	}
	k.panicMu.Unlock()
}

func (k *Kernel) takePanic() error {
	k.panicMu.Lock()
	defer k.panicMu.Unlock()
	return k.taskPanic
}

// ShardStat describes one shard's share of a completed run.
type ShardStat struct {
	// Cores is the number of simulated cores in the shard.
	Cores int
	// Steps is the number of scheduling steps the shard executed.
	Steps int64
	// Util is the shard's share of all scheduling steps — balanced shards
	// approach 1/NumShards each.
	Util float64
}

// Result summarizes a completed simulation.
type Result struct {
	// FinalVT is the program's virtual execution time: the latest task
	// completion time.
	FinalVT vtime.Time
	// Steps is the number of kernel scheduling steps.
	Steps int64
	// Messages, Hops, Bytes are network totals.
	Messages, Hops, Bytes int64
	// OutOfOrder is the number of handler invocations whose arrival stamp
	// preceded an already-handled arrival at the same destination.
	OutOfOrder int64
	// Handled is the total number of handled messages.
	Handled int64
	// Stalls is the total number of policy stalls across cores.
	Stalls int64
	// Instructions is the total annotated instruction count.
	Instructions int64
	// AvgRunnable and MaxRunnable sample how many cores were runnable per
	// scheduling decision: the number of cores a parallel host could
	// simulate concurrently under the active synchronization scheme
	// (§VIII "preliminary study").
	AvgRunnable float64
	MaxRunnable int
	// Shards is the number of execution domains the run used (1 on the
	// sequential engine); PerShard breaks the scheduling work down per
	// shard.
	Shards   int
	PerShard []ShardStat
}

// Run drives the simulation to quiescence: every injected task (and every
// task transitively created) has finished. It returns an error on deadlock
// or when a task panicked; such an error is terminal — the bodies still
// parked mid-execution are unwound, and every later Run returns it again.
//
// When a checkpoint has been armed with ArmResume, Run first restores the
// checkpointed state (by verified replay, see snapshot.go) and then
// continues to quiescence. When a pause position has been set with
// PauseAfter, Run returns ErrPaused at the corresponding quiescent point
// instead; the kernel may then be checkpointed and Run called again to
// continue.
func (k *Kernel) Run() (Result, error) {
	if k.resume != nil {
		ck := k.resume
		k.resume = nil
		if err := k.restoreReplay(ck); err != nil {
			// The kernel sits at a state nobody vouches for. Make that
			// terminal, as any failed run is, so the bodies the replay
			// parked are unwound instead of leaked.
			k.setPanic(err)
			k.stopWorkers(true)
			return Result{}, err
		}
	}
	return k.runEngine()
}

// runEngine drives the active engine loop once (no resume handling).
func (k *Kernel) runEngine() (Result, error) {
	k.paused = false
	k.schedRebuild()
	run := k.runSeq
	if k.sharded {
		run = k.runShard
	}
	res, err := run()
	failed := err != nil && err != ErrPaused
	if failed {
		k.setPanic(err) // sticky: every later Run reports the same failure
	}
	k.stopWorkers(failed)
	return res, err
}

// PauseAfter arms a pause position: the engine returns ErrPaused from Run
// once pos scheduling steps have completed, leaving the kernel at a
// quiescent, checkpointable point — before the next step on the
// sequential engine, at the first barrier where the count reaches pos on
// the sharded one (see Position). Zero disarms.
func (k *Kernel) PauseAfter(pos int64) { k.stopAfter = pos }

// Position returns the engine position: completed scheduling steps, on
// either engine. Checkpoint files record it so a resumed replay pauses at
// exactly the same point: every sharded round takes at least one step,
// so no two barriers share a position.
func (k *Kernel) Position() int64 { return k.steps.Load() }

// Paused reports whether the kernel sits at a pause point (Run returned
// ErrPaused and nothing ran since).
func (k *Kernel) Paused() bool { return k.paused }

// stopWorkers retires the worker coroutines pooled on each domain so a
// run leaves nothing behind. A failed run (deadlock, step limit, task
// panic) is terminal, so it also stops the workers parked inside a task
// body, unwinding those bodies (Env.yield); a paused run keeps them, they
// are what the next Run resumes. Runs single-threaded, after the engine
// loop has exited.
func (k *Kernel) stopWorkers(failed bool) {
	stop := func(t *Task) {
		if t != nil && t.worker != nil {
			t.worker.stop()
		}
	}
	for _, d := range k.domains {
		for i, w := range d.freeWorkers {
			w.stop()
			d.freeWorkers[i] = nil
		}
		d.freeWorkers = d.freeWorkers[:0]
		if !failed {
			continue
		}
		for _, t := range d.blocked {
			stop(t)
		}
		for _, c := range d.cores {
			stop(c.current)
			for _, t := range c.conts {
				stop(t)
			}
		}
	}
}

func (k *Kernel) liveTasks() int64 {
	var n int64
	for _, d := range k.domains {
		n += d.live
	}
	return n
}

// result reads the run's figures from the root registry. Every step
// samples the runnable count once (pickCore).
func (k *Kernel) result() Result {
	msgs, hops, bytes := k.net.Stats()
	r := Result{
		FinalVT:      k.MaxTime(),
		Steps:        k.steps.Load(),
		Messages:     msgs,
		Hops:         hops,
		Bytes:        bytes,
		OutOfOrder:   k.ctr.ooo.Value(),
		Handled:      k.ctr.handled.Value(),
		Stalls:       k.ctr.stalls.Sum(),
		Instructions: k.ctr.instructions.Sum(),
		Shards:       len(k.domains),
		PerShard:     make([]ShardStat, len(k.domains)),
	}
	if r.Steps > 0 {
		r.AvgRunnable = float64(k.ctr.runnable.Value()) / float64(r.Steps)
	}
	steps := k.ctr.steps.PerShard()
	for i, d := range k.domains {
		r.MaxRunnable = max(r.MaxRunnable, d.runnableMax)
		r.PerShard[i] = ShardStat{Cores: len(d.cores), Steps: steps[i]}
		if r.Steps > 0 {
			r.PerShard[i].Util = float64(steps[i]) / float64(r.Steps)
		}
	}
	return r
}

// deadlockError reports the blocked tasks preventing progress, aggregated
// per shard so multi-shard deadlocks name every blocking core and task.
func (k *Kernel) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "core: deadlock with %d live tasks", k.liveTasks())
	total := 0
	for _, d := range k.domains {
		total += len(d.blocked)
	}
	if total == 0 {
		b.WriteString("; blocked: none (stall cycle)")
	}
	for _, d := range k.domains {
		if len(k.domains) > 1 {
			fmt.Fprintf(&b, "\n shard %d (%d blocked):", d.id, len(d.blocked))
		} else {
			b.WriteString("; blocked:")
		}
		// Deterministic report order.
		ids := make([]uint64, 0, len(d.blocked))
		for id := range d.blocked {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for n, id := range ids {
			if n == 8 {
				fmt.Fprintf(&b, " (+%d more)", len(ids)-8)
				break
			}
			t := d.blocked[id]
			fmt.Fprintf(&b, " %q@core%d", t.Name, t.core.ID)
		}
	}
	for _, c := range k.cores {
		if c.idle && len(c.ready) == 0 && len(c.conts) == 0 {
			continue
		}
		cur := "-"
		if c.current != nil {
			cur = c.current.Name
		}
		fmt.Fprintf(&b, "\n  core%d shard%d vt=%v eff=%v horizon=%v cur=%s ready=%d conts=%d locks=%d minBirth=%v",
			c.ID, k.part[c.ID], c.vt, c.Eff(), k.policyHorizon(c), cur, len(c.ready), len(c.conts), c.lockDepth, c.minBirth())
	}
	return fmt.Errorf("%s", b.String())
}

// MaxTime returns the latest task completion time seen so far.
func (k *Kernel) MaxTime() vtime.Time {
	var m vtime.Time
	for _, d := range k.domains {
		if d.maxTime > m {
			m = d.maxTime
		}
	}
	return m
}

// GlobalMinTime returns the minimum NextEventTime over all cores: the
// earliest point in virtual time where anything can still happen. Global
// synchronization schemes (package drift) treat it as "the current global
// time".
func (k *Kernel) GlobalMinTime() vtime.Time {
	m := vtime.Inf
	for _, c := range k.cores {
		if t := c.NextEventTime(); t < m {
			m = t
		}
	}
	return m
}
