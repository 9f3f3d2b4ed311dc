// Package config assembles complete simulated machines from the paper's
// architecture presets (§V "Architecture Configuration" / "Architecture
// Exploration"): uniform, polymorphic and clustered 2D meshes, with
// shared-memory (optionally timing coherence effects) or distributed-memory
// organizations, under any synchronization policy.
package config

import (
	"fmt"
	"strings"

	"simany/internal/core"
	"simany/internal/cyclelevel"
	"simany/internal/drift"
	"simany/internal/mem"
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/rt"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// Style selects the machine organization.
type Style int

const (
	// Uniform is a homogeneous 2D mesh.
	Uniform Style = iota
	// Polymorphic alternates cores of speed 1/2 and 3/2 — exactly the
	// same cumulated computing power as the uniform machine (§V).
	Polymorphic
	// Clustered4 splits the mesh into 4 clusters (0.5-cycle intra links,
	// 4-cycle inter links).
	Clustered4
	// Clustered8 splits into 8 clusters.
	Clustered8
)

// String names the style.
func (s Style) String() string {
	switch s {
	case Polymorphic:
		return "polymorphic"
	case Clustered4:
		return "clustered4"
	case Clustered8:
		return "clustered8"
	default:
		return "uniform"
	}
}

// MemKind selects the memory organization.
type MemKind int

const (
	// SharedMem is the optimistic shared-memory architecture: uniform
	// 10-cycle banks, coherence delays ignored (§V).
	SharedMem MemKind = iota
	// SharedMemCoherent is shared memory with coherence-effect timing
	// enabled (the validation configuration of Figs. 5-6).
	SharedMemCoherent
	// DistributedMem is the distributed-memory architecture without
	// hardware coherence; shared data managed by the runtime (§IV).
	DistributedMem
)

// String names the memory kind.
func (m MemKind) String() string {
	switch m {
	case SharedMemCoherent:
		return "shared+coherence"
	case DistributedMem:
		return "distributed"
	default:
		return "shared"
	}
}

// Machine is a complete architecture description.
type Machine struct {
	// Cores is the core count (8, 64, 256 or 1024 in the paper).
	Cores int
	// Style is the organization (uniform/polymorphic/clustered).
	Style Style
	// Topo, when non-nil, overrides Style/Cores with an arbitrary network
	// (e.g. parsed from an adjacency-matrix file, §III).
	Topo *topology.Topology
	// TopoSpec, when non-empty, builds the network from a textual spec
	// (topology.ParseSpec): "chiplet:8x8,4x4,10x10", "mesh:16x8",
	// "ring:64", ... It overrides Style/Cores like Topo; an explicit Topo
	// takes precedence.
	TopoSpec string
	// Mem is the memory organization.
	Mem MemKind
	// T is the maximum local drift for spatial synchronization (100
	// cycles by default).
	T vtime.Time
	// Policy overrides the synchronization scheme; empty = "spatial".
	// Recognized: spatial, cyclelevel, quantum:<cycles>, slack:<cycles>,
	// laxp2p:<cycles>, unbounded.
	Policy string
	// SpeedAwareRT enables the heterogeneity-aware task dispatch policy
	// (the paper's §VIII future-work extension; see rt.Options).
	SpeedAwareRT bool
	// Seed drives all pseudo-random simulator decisions.
	Seed int64
	// MaxSteps optionally bounds the simulation (0 = unbounded).
	MaxSteps int64
	// Shards splits the machine into contiguous topology partitions that
	// the kernel executes round-by-round. 0 or 1 keeps the sequential
	// engine. A negative count, more shards than cores, or more than one
	// under a policy that is not shard-local or coherent shared memory is
	// an error (core.Config.CheckShards). The shard count is part of the
	// event semantics: results are deterministic for a fixed (seed, shards)
	// pair.
	Shards int
	// Workers is the number of host threads driving the shards (0 = all
	// CPUs, runtime.NumCPU, capped at Shards; negative is an error). It
	// never affects results.
	Workers int
	// Metrics, when non-nil, attaches a deterministic metrics registry:
	// the kernel records its standard instruments (message latency, link
	// contention, barrier stalls — see docs/observability.md) into it, and
	// the drift-comparison policies record their drift-to-bound probes.
	Metrics *metrics.Registry
}

// Default returns the paper's reference machine: a uniform shared-memory
// mesh with spatial synchronization at T=100.
func Default(cores int) Machine {
	return Machine{Cores: cores, T: core.DefaultT}
}

// Speeds returns the per-core speed factors for the style (nil for
// homogeneous).
func (m Machine) Speeds() []float64 {
	if m.Style != Polymorphic {
		return nil
	}
	s := make([]float64, m.Cores)
	for i := range s {
		// One core out of two is twice slower, the other faster by 3/2:
		// same cumulated computing power as the uniform machine (§V).
		if i%2 == 0 {
			s[i] = 0.5
		} else {
			s[i] = 1.5
		}
	}
	return s
}

// Topology builds the interconnect for the style (or returns the explicit
// override).
func (m Machine) Topology() *topology.Topology {
	if m.Topo != nil {
		return m.Topo
	}
	if m.TopoSpec != "" {
		t, err := topology.ParseSpec(m.TopoSpec)
		if err != nil {
			// Build validates the spec and returns the error; reaching
			// this panic means Topology was called around it.
			panic(err)
		}
		return t
	}
	switch m.Style {
	case Clustered4:
		return topology.Clustered(m.Cores, topology.DefaultClusteredParams(4))
	case Clustered8:
		return topology.Clustered(m.Cores, topology.DefaultClusteredParams(8))
	default:
		return topology.Mesh(m.Cores)
	}
}

// parsePolicy resolves the policy string.
func (m Machine) parsePolicy() (core.Policy, bool, error) {
	t := m.T
	if t == 0 {
		t = core.DefaultT
	}
	name, arg, hasArg := strings.Cut(m.Policy, ":")
	argCycles := func(def vtime.Time) (vtime.Time, error) {
		if !hasArg {
			return def, nil
		}
		v, err := vtime.ParseCycles(arg)
		if err != nil || v == 0 {
			return 0, fmt.Errorf("config: policy %q: want a cycle count of at least 0.001", m.Policy)
		}
		return v, nil
	}
	// When a metrics registry is attached, the drift-comparison policies
	// record how close each horizon decision came to the scheme's bound.
	probe := func() *metrics.Histogram {
		if m.Metrics == nil {
			return nil
		}
		return m.Metrics.Histogram("drift.probe", metrics.UnitTime, metrics.DefaultTimeBounds())
	}
	switch name {
	case "", "spatial":
		return core.Spatial{T: t}, false, nil
	case "cyclelevel", "cycle-level", "lockstep":
		return drift.Lockstep{}, true, nil
	case "quantum":
		q, err := argCycles(t)
		if err != nil {
			return nil, false, err
		}
		return drift.GlobalQuantum{Q: q, Probe: probe()}, false, nil
	case "slack", "bounded-slack":
		w, err := argCycles(t)
		if err != nil {
			return nil, false, err
		}
		return drift.BoundedSlack{W: w, Probe: probe()}, false, nil
	case "laxp2p":
		s, err := argCycles(t)
		if err != nil {
			return nil, false, err
		}
		return drift.LaxP2P{Slack: s, Probe: probe()}, false, nil
	case "unbounded":
		return drift.Unbounded{}, false, nil
	default:
		return nil, false, fmt.Errorf("config: unknown policy %q", m.Policy)
	}
}

// Build constructs the kernel and its task runtime. A Shards/Workers
// request the kernel cannot run as given is an error
// (core.Config.CheckShards), never a quietly different engine.
func (m Machine) Build() (*core.Kernel, *rt.Runtime, error) {
	cfg, err := m.kernelConfig()
	if err != nil {
		return nil, nil, err
	}
	if err := cfg.CheckShards(); err != nil {
		return nil, nil, err
	}
	k := core.New(cfg)
	rtOpt := rt.DefaultOptions()
	rtOpt.SpeedAware = m.SpeedAwareRT
	r := rt.New(k, nil, rtOpt)
	return k, r, nil
}

// kernelConfig validates the machine description and assembles the
// kernel configuration it names.
func (m Machine) kernelConfig() (core.Config, error) {
	if m.Topo == nil && m.TopoSpec != "" {
		t, err := topology.ParseSpec(m.TopoSpec)
		if err != nil {
			return core.Config{}, err
		}
		m.Topo = t
	}
	if m.Topo != nil {
		m.Cores = m.Topo.N()
	}
	if m.Cores <= 0 {
		return core.Config{}, fmt.Errorf("config: invalid core count %d", m.Cores)
	}
	if m.T < 0 {
		return core.Config{}, fmt.Errorf("config: negative drift bound T = %v", m.T)
	}
	if m.Topo != nil && m.Style == Polymorphic && m.Topo.N()%2 != 0 {
		return core.Config{}, fmt.Errorf("config: polymorphic style needs an even core count")
	}
	pol, isCycleLevel, err := m.parsePolicy()
	if err != nil {
		return core.Config{}, err
	}
	topo := m.Topology()
	if c := topo.Unreachable(); c >= 0 {
		return core.Config{}, fmt.Errorf("config: topology is disconnected: core %d cannot reach core 0", c)
	}
	cfg := core.Config{
		Topo:     topo,
		Policy:   pol,
		Speeds:   m.Speeds(),
		Seed:     m.Seed,
		MaxSteps: m.MaxSteps,
		Shards:   m.Shards,
		Workers:  m.Workers,
		Metrics:  m.Metrics,
	}
	switch {
	case isCycleLevel:
		// The cycle-level reference always models the detailed memory
		// system with full coherence (and constant-speed L1s) and its
		// 2-bit branch predictor.
		clCfg := cyclelevel.NewConfig(topo, cfg.Speeds, m.Seed)
		cfg.Predict = clCfg.Predict
		cfg.Mem = clCfg.Mem
	case m.Mem == DistributedMem:
		cfg.Mem = mem.NewDistributed()
	case m.Mem == SharedMemCoherent:
		cfg.Mem = mem.NewShared().WithCoherence(network.New(topo, network.DefaultParams()))
	default:
		cfg.Mem = mem.NewShared()
	}
	return cfg, nil
}
