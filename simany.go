// Package simany is a discrete-event many-core simulator reproducing
// "A Very Fast Simulator for Exploring the Many-Core Future" (Certner, Li,
// Raman, Temam — IPDPS 2011).
//
// SiMany simulates machines with up to (and beyond) a thousand cores by
// raising the level of abstraction: sequential code runs natively between
// timing annotations, interactions (messages, memory traffic, task
// management) are simulated, and virtual clocks are kept approximately
// coherent with spatial synchronization — a purely local scheme where a
// core may run at most T cycles ahead of its topological neighbors.
//
// # Quick start
//
//	m := simany.NewMachine(64)                 // 8x8 mesh, shared memory
//	sim, err := simany.NewSimulation(m)
//	if err != nil { ... }
//	res, err := sim.Run("hello", func(e *simany.Env) {
//	    g := sim.RT.NewGroup()
//	    for i := 0; i < 32; i++ {
//	        sim.RT.SpawnOrRun(e, g, "work", 0, func(e *simany.Env) {
//	            e.ComputeCycles(1000)
//	        })
//	    }
//	    sim.RT.Join(e, g)
//	})
//	fmt.Println("virtual execution time:", res.FinalVT)
//
// The architecture grid of the paper (uniform/polymorphic/clustered meshes,
// shared or distributed memory, any synchronization policy) is selected
// through the Machine fields; the experiment harness that regenerates the
// paper's figures is exposed through NewHarness.
//
// Setting Machine.Shards > 1 runs the simulation on the sharded parallel
// engine: the topology is split into contiguous partitions executed on
// host worker threads (Machine.Workers) that synchronize at deterministic
// virtual-time barriers. Results are fully determined by the (seed,
// shards) pair — the worker count only changes wall-clock time. A shard
// count the engine cannot honour (more shards than cores, or more than one
// under a policy that is not shard-local or coherent shared memory) makes
// NewSimulation return an error. See docs/parallel.md.
package simany

import (
	"io"

	"simany/internal/annotate"
	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/harness"
	"simany/internal/mem"
	"simany/internal/rt"
	"simany/internal/stats"
	"simany/internal/timing"
	"simany/internal/topology"
	"simany/internal/trace"
	"simany/internal/vtime"
)

// Core simulation types, re-exported from the engine.
type (
	// Env is the interface task code uses to interact with the simulator:
	// timing annotations, memory accesses, messaging and blocking.
	Env = core.Env
	// Task is one unit of parallel work.
	Task = core.Task
	// Result summarizes a completed simulation.
	Result = core.Result
	// Kernel is the discrete-event simulation kernel.
	Kernel = core.Kernel
	// Policy is a virtual-time synchronization scheme.
	Policy = core.Policy
	// Spatial is the paper's spatial synchronization policy.
	Spatial = core.Spatial

	// Runtime is the probe/spawn/join task runtime of §IV.
	Runtime = rt.Runtime
	// Group is a task group for coarse synchronization (join).
	Group = rt.Group
	// Lock is a shared-memory mutex with lock-holder stall exemption.
	Lock = rt.Lock
	// Link is a generalized pointer to a distributed-memory cell.
	Link = mem.Link

	// Machine describes a complete architecture (cores, style, memory,
	// synchronization).
	Machine = config.Machine
	// Style selects uniform/polymorphic/clustered organizations.
	Style = config.Style
	// MemKind selects the memory organization.
	MemKind = config.MemKind

	// Time is a virtual time or duration in millicycles.
	Time = vtime.Time
	// Counts is a per-instruction-class annotation block.
	Counts = timing.Counts
	// Topology is an interconnection network.
	Topology = topology.Topology

	// Benchmark is one of the paper's dwarf workloads.
	Benchmark = bench.Benchmark
	// BenchMode selects the benchmark's memory programming model.
	BenchMode = bench.Mode

	// Table is a rendered figure/table of the experiment harness.
	Table = stats.Table
)

// Architecture styles (§V "Architecture Exploration").
const (
	Uniform     = config.Uniform
	Polymorphic = config.Polymorphic
	Clustered4  = config.Clustered4
	Clustered8  = config.Clustered8
)

// Memory organizations (§V "Architecture Configuration").
const (
	SharedMem         = config.SharedMem
	SharedMemCoherent = config.SharedMemCoherent
	DistributedMem    = config.DistributedMem
)

// Benchmark program modes.
const (
	BenchShared      = bench.Shared
	BenchDistributed = bench.Distributed
)

// Cycle is one processor cycle as a Time value.
const Cycle = vtime.Cycle

// DefaultT is the paper's reference maximum local drift (100 cycles).
var DefaultT = core.DefaultT

// Cycles converts a (possibly fractional) cycle count to a Time.
func Cycles(c float64) Time { return vtime.Cycles(c) }

// NewMachine returns the paper's reference machine: a most-square 2D mesh
// of the given core count with shared memory and spatial synchronization at
// T = 100 cycles. Adjust the returned Machine's fields to explore the
// design space.
func NewMachine(cores int) Machine { return config.Default(cores) }

// Simulation couples a built kernel with its task runtime.
type Simulation struct {
	// K is the simulation kernel (cores, network, policy).
	K *Kernel
	// RT is the task runtime (probe/spawn/join, locks, cells).
	RT *Runtime
}

// NewSimulation builds the machine and its runtime.
func NewSimulation(m Machine) (*Simulation, error) {
	k, r, err := m.Build()
	if err != nil {
		return nil, err
	}
	return &Simulation{K: k, RT: r}, nil
}

// Run injects the root task and drives the simulation to quiescence.
func (s *Simulation) Run(name string, root func(*Env)) (Result, error) {
	return s.RT.Run(name, root)
}

// Benchmarks returns fresh instances of the six dwarf benchmarks of §V.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkByName resolves one benchmark.
func BenchmarkByName(name string) (Benchmark, error) { return bench.ByName(name) }

// ParseTopology reads an adjacency-matrix topology description (§III:
// "network topology is specified in a configuration file as an adjacency
// matrix").
func ParseTopology(r io.Reader) (*Topology, error) { return topology.ParseAdjacency(r) }

// WriteTopology serializes a topology in the same format.
func WriteTopology(w io.Writer, t *Topology) error { return topology.WriteAdjacency(w, t) }

// Mesh builds the most-square 2D mesh over n cores with the paper's
// default link parameters.
func Mesh(n int) *Topology { return topology.Mesh(n) }

// ExperimentOptions configures the figure-regeneration harness.
type ExperimentOptions = harness.Options

// Harness regenerates the paper's figures and tables.
type Harness = harness.Harness

// NewHarness creates an experiment harness.
func NewHarness(opt ExperimentOptions) *Harness { return harness.New(opt) }

// Figures lists the regenerable experiment identifiers (figure numbers
// plus "errors" and "ablation").
func Figures() []string { return harness.AllFigures() }

// TraceEvent is one record of simulator activity (see Kernel.SetTracer).
type TraceEvent = core.TraceEvent

// TraceRecorder collects simulator trace events for post-run analysis.
type TraceRecorder = trace.Recorder

// NewTraceRecorder creates a recorder retaining up to limit events
// (0 = unlimited); install it with sim.K.SetTracer before Run.
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// TraceTimeline renders an ASCII per-core activity chart from a recorded
// trace.
func TraceTimeline(w io.Writer, events []TraceEvent, numCores int, endVT Time, width int) error {
	return trace.Timeline(w, events, numCores, endVT, width)
}

// TraceUtilization computes per-core busy fractions from a recorded trace.
func TraceUtilization(events []TraceEvent, numCores int, endVT Time) []float64 {
	return trace.Utilization(events, numCores, endVT)
}

// LoadMachineFile reads a complete architecture description from a machine
// file (see internal/config's file format: cores, style, mem, policy, T,
// seed, speedaware, topology <adjacency file>).
func LoadMachineFile(path string) (Machine, error) { return config.LoadMachineFile(path) }

// ParseMachine parses a machine description from r; resolve loads
// referenced topology files (nil forbids references).
func ParseMachine(r io.Reader, resolve func(path string) (io.ReadCloser, error)) (Machine, error) {
	return config.ParseMachine(r, resolve)
}

// WriteMachine serializes a machine description.
func WriteMachine(w io.Writer, m Machine) error { return config.WriteMachine(w, m) }

// Calibrator converts host-native execution time into simulated cycles —
// the paper's "annotations computed during the execution" mode (§II.A).
type Calibrator = annotate.Calibrator

// NewCalibrator measures the host and returns a ready calibrator.
func NewCalibrator() *Calibrator { return annotate.NewCalibrator() }

// OpMix prices abstract operation mixes (compares, swaps, pointer chases,
// float ops) as instruction-class annotations.
type OpMix = annotate.Model

// NewOpMix returns the operation-mix decompositions used by the dwarf
// benchmarks.
func NewOpMix() *OpMix { return annotate.NewModel() }

// ValidatingTracer periodically checks kernel invariants during a run and
// panics on the first violation — a debugging aid for custom policies and
// memory systems (see Kernel.Validate).
type ValidatingTracer = core.ValidatingTracer
