package core

import (
	"fmt"
	"math/rand"
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

// ShardSafeMem is implemented by memory systems whose Access method only
// mutates state owned by the accessing core (its L1/L2), making them safe
// to drive from concurrent shard workers. Memory systems that do not
// implement it (or return false) force the kernel onto the sequential
// engine regardless of Config.Shards.
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
	// NetParams tunes the network model.
	NetParams network.Params
	// Policy is the synchronization scheme. Defaults to Spatial{T: 100
	// cycles}, the paper's reference configuration.
	Policy Policy
	// CostModel prices instruction classes; defaults to timing.PPC405.
	CostModel *timing.CostModel
	// Predict builds the per-core branch predictor; defaults to the
	// paper's 90% probabilistic predictor.
	Predict func(coreID int, seed int64) timing.Predictor
	// Mem is the memory system; defaults to NullMem.
	Mem MemSystem
	// Speeds gives per-core computing-power factors (nil = homogeneous
	// 1.0).
	Speeds []float64
	// TaskStartCost is the overhead of starting a task on a core (10
	// cycles in §V), in addition to the spawn-message transit time.
	TaskStartCost vtime.Time
	// CtxSwitchCost is the cost of switching to a joining task resuming
	// execution (15 cycles in §V).
	CtxSwitchCost vtime.Time
	// Seed makes the run reproducible.
	Seed int64
	// MaxSteps aborts runaway simulations (0 = no limit).
	MaxSteps int64
	// Tracer, when set, receives simulator trace events (see TraceEvent).
	// Tracing is shard-safe: on the sharded engine events are buffered per
	// shard and merged deterministically at each virtual-time barrier, so a
	// tracer never forces the sequential engine.
	Tracer Tracer
	// Metrics, when set, attaches a registry of deterministic simulator
	// instruments (per-link contention waits, message latency, barrier
	// stall time, drift spread; see docs/observability.md). The kernel
	// widens the registry to one stripe per shard, so updates from
	// concurrent shard workers stay lock-free and the merged snapshot is
	// identical at every worker count.
	Metrics *metrics.Registry

	// Shards partitions the topology into contiguous regions, each driven
	// by its own local scheduling loop with cross-shard traffic exchanged
	// at deterministic barriers. Shards defines the event semantics: for a
	// fixed seed and shard count the Result is identical regardless of
	// Workers or host scheduling. Shards=1 (the default, also used when 0)
	// reproduces the original sequential kernel bit-for-bit. Values above
	// the core count are clamped. Sharding silently falls back to the
	// sequential engine when the policy or the memory system is not
	// shard-safe (tracers and metrics are shard-safe; see Tracer).
	Shards int
	// Workers is the number of host threads driving the shards
	// (0 = runtime.NumCPU(), capped at Shards). Workers only adds host
	// parallelism; it never changes the Result.
	Workers int
	// ShardQuantum bounds how far cores may be scheduled past the global
	// minimum virtual time within one shard round (0 = 8×T for the
	// spatial policy, 8×DefaultT otherwise). Smaller quanta tighten the
	// cross-shard drift at the price of more barriers.
	ShardQuantum vtime.Time
}

// DefaultT is the paper's reference maximum local drift (100 cycles).
//
//lint:allow snapshotsafe immutable configuration default, read only at kernel construction
var DefaultT = vtime.CyclesInt(100)

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
	//simany:derived setup-time stream only: simulation draws come from per-core rng.Rand state
	rng *rand.Rand

	taskStartCost vtime.Time //simany:derived immutable cost configuration from Config
	ctxSwitchCost vtime.Time //simany:derived immutable cost configuration from Config

	// Execution engine state: the machine is split into one or more
	// domains (shards). The sequential engine uses a single domain; the
	// sharded engine runs the domains on worker goroutines between
	// deterministic barriers (see shard.go).
	domains []*domain
	//simany:derived partition map, recomputed by setupEngine from (topology, shards)
	part    []int // core ID -> domain index
	sharded bool
	workers int        //simany:derived engine configuration, reinstated by New
	quantum vtime.Time //simany:derived engine configuration, reinstated by New
	//simany:derived transient: checkpoints only happen outside barriers
	inBarrier bool
	//simany:derived locality table, recomputed by setupEngine (nil if not precomputed)
	pairLocal []bool // n×n: route stays inside one shard

	// onPick, when set, observes every scheduling decision (test hook;
	// called from the worker driving the picked core's domain).
	onPick func(c *Core, key vtime.Time)

	// Effective-time evaluation (efflazy.go): effLazy records that the
	// policy relays effective times through idle cores (IdleRelayPolicy),
	// so the kernel maintains them — lazily, from the busy frontier;
	// relayDelta caches the policy's per-hop relay increment.
	effLazy    bool       //simany:derived policy-derived configuration, reinstated by New
	relayDelta vtime.Time //simany:derived policy-derived configuration, reinstated by New
	lmDist     [][]int32  //simany:derived landmark hop-distance tables, built from the topology by the first landmark scan
	lmOnce     sync.Once  //simany:derived guards that build: shard workers may reach their first scans concurrently

	// Barrier scratch buffers, reused across rounds: the merged deferred
	// items drained at each barrier and the worklist of the global
	// effective-time relaxation.
	barrierItems []deferredItem //simany:derived barrier scratch, empty between rounds
	effQueue     []int          //simany:derived relaxation scratch, empty between rounds

	steps atomic.Int64
	//simany:derived step budget from Config, reinstated by New
	maxSteps int64

	panicMu sync.Mutex
	//simany:derived a panicked kernel refuses Checkpoint; always nil when one is taken
	taskPanic error

	// Checkpoint machinery (snapshot.go). barriers counts completed
	// sharded rounds; the engine position is barriers on the sharded
	// engine and the step count on the sequential one. stopAfter, when
	// non-zero, pauses the engine (Run returns ErrPaused) once the
	// position reaches it; paused records that the kernel sits at such a
	// quiescent point, the only state where Checkpoint is legal. resume
	// holds a parsed checkpoint armed by ArmResume, consumed by the next
	// Run. fprint is the configuration fingerprint embedded in
	// checkpoint files.
	barriers  int64
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

	// demotion records why a requested sharded configuration fell back to
	// the sequential engine ("" = no demotion); see DemotionNotice.
	//simany:derived recomputed by setupEngine from the same Config
	demotion string
	// clamp records that the requested shard count exceeded the core
	// count and was reduced ("" = no clamp); see ClampNotice. Before this
	// existed the clamp was silent, and the reported shard count could
	// disagree with what the user asked for with no explanation.
	//simany:derived recomputed by setupEngine from the same Config
	clamp string

	// onTaskStart, when set, runs right after a fresh task is popped from
	// a core's queue (the task runtime broadcasts queue occupancy here).
	onTaskStart func(c *Core, t *Task)

	tracer   Tracer
	traceSeq uint64
	// traceMerge is the scratch slice flushTrace reuses to merge the
	// per-shard trace buffers at each barrier.
	//
	//simany:derived merge scratch, contents dead between flushTrace calls
	traceMerge []TraceEvent

	// met, when non-nil, holds the kernel's standard instruments in the
	// attached metrics registry (see metrics.go).
	met *kernelMetrics
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
func fingerprint(cfg Config) uint64 {
	h := splitmix64(uint64(cfg.Seed))
	mix := func(v uint64) { h = splitmix64(h ^ v) }
	mix(uint64(cfg.Topo.N()))
	// Mix the *effective* shard count, clamped exactly as setupEngine
	// clamps it: Shards=200 on a 64-core machine and Shards=64 produce
	// identical partitions and must produce interchangeable checkpoints —
	// previously the raw value was mixed and the fingerprints disagreed.
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Topo.N() {
		shards = cfg.Topo.N()
	}
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
	//lint:allow rawvtime fingerprint hashing: the millicycle values are mixed into a hash, never used as times
	mix(uint64(cfg.TaskStartCost))
	//lint:allow rawvtime fingerprint hashing of a configured cost constant
	mix(uint64(cfg.CtxSwitchCost))
	//lint:allow rawvtime fingerprint hashing of a configured quantum constant
	mix(uint64(cfg.ShardQuantum))
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

// New builds a kernel from a configuration.
func New(cfg Config) *Kernel {
	if cfg.Topo == nil {
		panic("core: Config.Topo is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = Spatial{T: DefaultT}
	}
	if cfg.CostModel == nil {
		cfg.CostModel = timing.PPC405()
	}
	if cfg.Predict == nil {
		rate := cfg.CostModel.PredictRate
		cfg.Predict = func(coreID int, seed int64) timing.Predictor {
			return timing.NewProbabilisticPredictor(rate, seed+int64(coreID))
		}
	}
	if cfg.Mem == nil {
		cfg.Mem = NullMem{}
	}
	if cfg.NetParams.ChunkSize == 0 {
		cfg.NetParams = network.DefaultParams()
	}
	if cfg.TaskStartCost == 0 {
		cfg.TaskStartCost = vtime.CyclesInt(10)
	}
	if cfg.CtxSwitchCost == 0 {
		cfg.CtxSwitchCost = vtime.CyclesInt(15)
	}
	n := cfg.Topo.N()
	k := &Kernel{
		topo:          cfg.Topo,
		net:           network.New(cfg.Topo, cfg.NetParams),
		policy:        cfg.Policy,
		mem:           cfg.Mem,
		handlers:      make(map[network.Kind]Handler),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		taskStartCost: cfg.TaskStartCost,
		ctxSwitchCost: cfg.CtxSwitchCost,
		maxSteps:      cfg.MaxSteps,
		tracer:        cfg.Tracer,
		diam:          -2,
	}
	k.fprint = fingerprint(cfg)
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
		timers[i] = *timing.NewBlockTimer(cfg.CostModel, cfg.Predict(i, cfg.Seed))
		l1s[i] = *cache.NewScoped(cache.DefaultLineSize)
		l2s[i] = *cache.NewL2(cache.DefaultLineSize)
		c := &backing[i]
		*c = Core{
			ID:         i,
			Speed:      speed,
			k:          k,
			idle:       true,
			eff:        vtime.Inf,
			neighbors:  cfg.Topo.Neighbors(i),
			timer:      &timers[i],
			l1:         &l1s[i],
			l2:         &l2s[i],
			birthCache: vtime.Inf,
			readyMin:   vtime.Inf,
			contsMin:   vtime.Inf,
			schedPos:   -1,
			busyPos:    -1,
			stallPos:   -1,
			rng:        *rng.New(splitmix64(uint64(cfg.Seed) ^ uint64(i))),
		}
		k.cores[i] = c
	}
	k.setupEngine(cfg)
	return k
}

// setupEngine resolves the Shards/Workers knobs, checks shard safety, and
// builds the execution domains.
func (k *Kernel) setupEngine(cfg Config) {
	n := len(k.cores)
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
		k.clamp = fmt.Sprintf("core: requested %d shards clamped to %d (one shard per core maximum)", cfg.Shards, n)
	}
	if shards > 1 {
		if reason := k.shardUnsafeReason(cfg); reason != "" {
			shards = 1
			k.demotion = reason
		}
	}
	k.sharded = shards > 1

	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > shards {
		workers = shards
	}
	k.workers = workers

	k.quantum = cfg.ShardQuantum
	if k.quantum <= 0 {
		t := DefaultT
		if sp, ok := k.policy.(Spatial); ok && sp.T > 0 {
			t = sp.T
		}
		k.quantum = 8 * t
	}

	k.part = topology.PartitionFor(k.topo, shards)
	k.net.SetStripes(shards, k.part)
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
			busyList:    coreHeap{less: anchorLess, pos: anchorPos},
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
	k.setupEff()
	k.setupScheduler()
	if k.effLazy {
		// Valid idle-neighbor counts from the start: Validate may run on a
		// kernel that has never entered an engine loop.
		for _, d := range k.domains {
			d.rebuildIdleNb()
		}
	}
	if k.sharded {
		k.buildPairLocal()
	}
	if cfg.Metrics != nil {
		k.met = newKernelMetrics(cfg.Metrics, shards)
		k.net.SetObserver(netObserver{k})
	}
}

// setupScheduler arms the per-domain runnable queues when the policy's
// horizon is cacheable (CacheableHorizonPolicy). The scan re-evaluates
// Horizon for every stalled core at every decision, so a horizon that
// reads global machine state or has side effects (RNG draws, metric
// probes) can only be reproduced by keeping the scan.
func (k *Kernel) setupScheduler() {
	p, ok := k.policy.(CacheableHorizonPolicy)
	if !ok || !p.HorizonCacheable() {
		return
	}
	for _, d := range k.domains {
		d.rq = newRunq(d)
		d.sq = &coreHeap{less: stallLess, pos: stallPos}
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
		if d.rq != nil {
			d.rq.rebuild()
			d.rebuildStallq()
		}
	}
}

// Scheduler names the active scheduling implementation: "index" or
// "scan".
func (k *Kernel) Scheduler() string {
	if k.domains[0].rq != nil {
		return "index"
	}
	return "scan"
}

// shardUnsafeReason reports why the configuration cannot run sharded, or
// "" when every component tolerates sharded execution: the policy must
// make purely local decisions and the memory system must only mutate
// core-owned state. Tracers are shard-safe (per-shard buffers merged at
// barriers) and never gate the engine.
func (k *Kernel) shardUnsafeReason(cfg Config) string {
	p, ok := k.policy.(ShardLocalPolicy)
	if !ok || !p.ShardLocal() {
		return fmt.Sprintf("policy %q does not make shard-local decisions", k.policy.Name())
	}
	m, ok := k.mem.(ShardSafeMem)
	if !ok || !m.ShardSafe() {
		return "the memory system is not shard-safe"
	}
	return ""
}

// buildPairLocal precomputes, for every (src,dst) pair, whether the
// network route stays inside a single shard, so intra-shard messages can
// be delivered synchronously without touching another shard's link state.
func (k *Kernel) buildPairLocal() {
	n := len(k.cores)
	if n > 4096 {
		return // fall back to per-send route walks
	}
	k.pairLocal = make([]bool, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			k.pairLocal[src*n+dst] = k.net.RouteWithin(src, dst, k.part)
		}
	}
}

// localDelivery reports whether a message can be routed and handled
// synchronously by the shard that owns both endpoints.
func (k *Kernel) localDelivery(src, dst int) bool {
	if k.pairLocal != nil {
		return k.pairLocal[src*len(k.cores)+dst]
	}
	return k.net.RouteWithin(src, dst, k.part)
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

// Rand returns the kernel's deterministic random source. It is safe for
// pre-run setup only; simulated code must draw from Core.Rand so results
// stay independent of host scheduling.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// CtxSwitchCost returns the configured context-switch overhead.
func (k *Kernel) CtxSwitchCost() vtime.Time { return k.ctxSwitchCost }

// Sharded reports whether the kernel runs on the sharded parallel engine.
func (k *Kernel) Sharded() bool { return k.sharded }

// NumShards returns the number of execution domains (1 on the sequential
// engine).
func (k *Kernel) NumShards() int { return len(k.domains) }

// Workers returns the number of host threads driving the shards.
func (k *Kernel) Workers() int { return k.workers }

// ShardOf returns the shard owning core i.
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
// route share one shard — the destination handler runs synchronously and
// the returned message carries its arrival time. A cross-shard message is
// deferred to the next barrier instead, where it is routed and handled in
// deterministic (stamp, source) order; its return value then reports no
// arrival time (the stamps embedded in handler replies carry the timing).
func (k *Kernel) send(msg network.Message) network.Message {
	if k.sharded && !k.inBarrier && !k.localDelivery(msg.Src, msg.Dst) {
		k.domains[k.part[msg.Src]].enqueueMsg(msg)
		return msg
	}
	return k.sendNow(msg)
}

// sendNow routes a message and immediately runs the destination handler.
// It always executes in the context of the shard owning the full route
// (intra-shard deliveries run on that shard's worker, cross-shard ones
// inside the single-threaded barrier), so the per-destination arrival
// bookkeeping and the per-shard handled counters need no atomics.
func (k *Kernel) sendNow(msg network.Message) network.Message {
	msg = k.net.Send(msg)
	k.cores[msg.Src].stats.MsgsSent++
	h, ok := k.handlers[msg.Kind]
	if !ok {
		panic(fmt.Sprintf("core: no handler for message kind %d", msg.Kind))
	}
	dst := k.cores[msg.Dst]
	dst.dom.handled++
	if msg.Arrival < dst.lastHandled {
		dst.dom.oooMsgs++
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
	h(k, msg)
	return msg
}

// SendAt emits a message on behalf of core src at an explicit stamp; used
// by handlers to reply (stamp = arrival + handling cost).
func (k *Kernel) SendAt(src, dst int, kind network.Kind, size int, payload any, stamp vtime.Time) network.Message {
	return k.send(network.Message{
		Src: src, Dst: dst, Kind: kind, Size: size, Payload: payload, Stamp: stamp,
	})
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
		if k.sharded && !k.inBarrier && k.part[birthOwner.ID] != k.part[coreID] {
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

// horizonFor evaluates the policy horizon for c, capped by the shard round
// limit while a round is in progress (frozen cross-shard proxies are only
// trustworthy up to the round quantum).
func (k *Kernel) horizonFor(c *Core) vtime.Time {
	h := k.policy.Horizon(c)
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
	c.addBirth(spawned.ID, stamp)
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
		t.core.pushCont(t)
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
	if !k.sharded || k.inBarrier || k.part[src] == k.part[t.core.ID] {
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
// once pos is reached, leaving the kernel at a quiescent, checkpointable
// point. The position counts completed barriers on the sharded engine and
// completed scheduling steps on the sequential one (see Position). Zero
// disarms.
func (k *Kernel) PauseAfter(pos int64) { k.stopAfter = pos }

// Position returns the engine position: completed barriers (sharded) or
// completed scheduling steps (sequential). Checkpoint files record it so a
// resumed replay pauses at exactly the same point.
func (k *Kernel) Position() int64 {
	if k.sharded {
		return k.barriers
	}
	return k.steps.Load()
}

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

func (k *Kernel) result() Result {
	msgs, hops, bytes := k.net.Stats()
	r := Result{
		FinalVT:  k.MaxTime(),
		Steps:    k.steps.Load(),
		Messages: msgs,
		Hops:     hops,
		Bytes:    bytes,
		Shards:   len(k.domains),
	}
	for _, d := range k.domains {
		r.OutOfOrder += d.oooMsgs
		r.Handled += d.handled
	}
	for _, c := range k.cores {
		r.Stalls += c.stats.Stalls
		r.Instructions += c.stats.Instructions
	}
	var rSum, rSamples int64
	for _, d := range k.domains {
		rSum += d.runnableSum
		rSamples += d.runnableSamples
		if d.runnableMax > r.MaxRunnable {
			r.MaxRunnable = d.runnableMax
		}
	}
	if rSamples > 0 {
		r.AvgRunnable = float64(rSum) / float64(rSamples)
	}
	r.PerShard = make([]ShardStat, len(k.domains))
	for i, d := range k.domains {
		r.PerShard[i] = ShardStat{Cores: len(d.cores), Steps: d.stepsTotal}
		if r.Steps > 0 {
			r.PerShard[i].Util = float64(d.stepsTotal) / float64(r.Steps)
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
			c.ID, k.part[c.ID], c.vt, c.Eff(), k.policy.Horizon(c), cur, len(c.ready), len(c.conts), c.lockDepth, c.minBirth())
	}
	return fmt.Errorf("%s", b.String())
}

// BusyMinVT returns the minimum virtual time among busy cores, Inf when all
// cores are idle. Used by the global synchronization policies in package
// drift.
func (k *Kernel) BusyMinVT() vtime.Time {
	m := vtime.Inf
	for _, c := range k.cores {
		if !c.idle && c.vt < m {
			m = c.vt
		}
	}
	return m
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
