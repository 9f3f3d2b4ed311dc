package core

import (
	"fmt"
	"runtime"

	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/timing"
	"simany/internal/topology"
	"simany/internal/vtime"
)

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
		seed:     cfg.Seed,
		costs:    timing.PPC405(),
		predict:  cfg.Predict,
	}
	// The Core structs are one flat backing array; their run state comes
	// later, from per-domain chunks, for the cores that are used.
	k.cores = make([]*Core, n)
	backing := make([]Core, n)
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
		backing[i] = Core{
			ID:    i,
			Speed: speed,
			k:     k,
			idle:  true,
			eff:   vtime.Inf,
			links: [2]int32{int32(cfg.Topo.FirstLink(i)), int32(cfg.Topo.FirstLink(i) + cfg.Topo.Degree(i))},
			hpos:  [4]int32{-1, -1, -1, -1},
		}
		k.cores[i] = &backing[i]
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
		d.sk = runq{coreHeap: coreHeap{slot: stickySlot, byID: true}, d: d, limit: vtime.Inf}
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
