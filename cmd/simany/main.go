// Command simany runs one dwarf benchmark on one simulated many-core
// machine and reports virtual time, speedup-relevant statistics and
// simulation cost.
//
// Usage:
//
//	simany -bench quicksort -cores 64 -mem shared -style uniform -T 100
//
// Flags select the architecture grid of the paper (§V): core count, mesh
// style (uniform, polymorphic, clustered4, clustered8), memory organization
// (shared, shared+coherence, distributed), synchronization policy and the
// maximum local drift T.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/trace"
	"simany/internal/vtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simany:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simany", flag.ContinueOnError)
	var (
		benchName = fs.String("bench", "quicksort", "benchmark: "+strings.Join(bench.Names(), ", "))
		cores     = fs.Int("cores", 64, "number of cores")
		topoSpec  = fs.String("topo", "", "topology spec overriding -cores/-style: chiplet:8x8,4x4[,...], mesh:WxH, torus:WxH, ring:N, star:N, full:N (docs/topology.md)")
		memKind   = fs.String("mem", "shared", "memory organization: shared, coherent, distributed")
		style     = fs.String("style", "uniform", "machine style: uniform, polymorphic, clustered4, clustered8")
		policy    = fs.String("policy", "spatial", "sync policy: spatial, cyclelevel, quantum:<cy>, slack:<cy>, laxp2p:<cy>, unbounded")
		tFlag     = fs.String("T", "100", "maximum local drift T in cycles (spatial sync)")
		seed      = fs.Int64("seed", 42, "random seed")
		shards    = fs.Int("shards", 1, "topology partitions for the parallel engine (1 = sequential; more than the cores, or more than 1 under a non-shard-local policy or coherent memory, is an error)")
		workers   = fs.Int("workers", 0, "host threads driving the shards (0 = all CPUs, capped at -shards)")
		scale     = fs.Float64("scale", 1, "dataset scale factor (≥1 approaches paper-sized inputs)")
		verbose   = fs.Bool("v", false, "print runtime statistics")
		traceFile = fs.String("trace", "", "write an event trace to this file (.json = Chrome/Perfetto trace_event format, otherwise text)")
		timeline  = fs.Bool("timeline", false, "print an ASCII per-core activity timeline")
		metricsF  = fs.String("metrics", "", "write the deterministic metrics snapshot to this file (\"-\" = stdout)")
		pprofF    = fs.String("pprof", "", "write a host CPU profile of the simulation to this file")
		machineF  = fs.String("machine", "", "load the architecture from a machine description file (overrides -cores/-style/-mem/-policy/-T)")
		ckptF     = fs.String("checkpoint", "", "pause at the -checkpoint-after position and write a checkpoint to this file")
		ckptAfter = fs.Int64("checkpoint-after", 0, "engine position in scheduling steps to checkpoint at (the sharded engine pauses at the first barrier that reaches it); requires -checkpoint")
		resumeF   = fs.String("resume", "", "resume from a checkpoint file written by -checkpoint (same benchmark, seed, scale and machine flags required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptF != "" && *ckptAfter <= 0 {
		return fmt.Errorf("-checkpoint requires -checkpoint-after N (N > 0)")
	}
	// Parsed as the machine file and policy arguments are: a float flag
	// would let NaN, overflow and sub-resolution values through.
	tCycles, err := vtime.ParseCycles(*tFlag)
	if err != nil || tCycles == 0 {
		return fmt.Errorf("-T %q: want a cycle count of at least 0.001", *tFlag)
	}

	b, err := bench.ByName(*benchName)
	if err != nil {
		return err
	}
	var m config.Machine
	if *machineF != "" {
		if m, err = config.LoadMachineFile(*machineF); err != nil {
			return err
		}
		if m.Seed == 0 {
			m.Seed = *seed
		}
	} else {
		m = config.Machine{Cores: *cores, TopoSpec: *topoSpec, T: tCycles, Policy: *policy, Seed: *seed}
		if m.Style, err = config.ParseStyle(*style); err != nil {
			return err
		}
		if m.Mem, err = config.ParseMem(*memKind); err != nil {
			return err
		}
	}
	m.Shards, m.Workers = *shards, *workers
	return execute(b, m, *seed, *scale, runOpts{
		verbose: *verbose, traceFile: *traceFile, timeline: *timeline,
		metricsFile: *metricsF, pprofFile: *pprofF,
		checkpointFile: *ckptF, checkpointAfter: *ckptAfter, resumeFile: *resumeF,
	})
}

// runOpts bundles the observability outputs of one run.
type runOpts struct {
	verbose     bool
	traceFile   string
	timeline    bool
	metricsFile string
	pprofFile   string

	// checkpointFile/checkpointAfter pause the run at an engine position
	// and write the kernel state; resumeFile restores a previous run
	// instead of starting from virtual time zero (docs/checkpoint.md).
	checkpointFile  string
	checkpointAfter int64
	resumeFile      string
}

// execute generates the workload, runs the simulation and reports.
func execute(b bench.Benchmark, m config.Machine, seed int64, scale float64, opts runOpts) error {
	mode := m.Mem.Mode()
	b.Generate(seed, scale)
	nativeStart := time.Now()
	want := b.RunNative()
	nativeWall := time.Since(nativeStart)

	if opts.metricsFile != "" {
		m.Metrics = metrics.New()
	}
	k, r, err := m.Build()
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if opts.traceFile != "" || opts.timeline {
		rec = trace.NewRecorder(1_000_000)
		k.SetTracer(rec)
	}
	if opts.pprofFile != "" {
		f, err := os.Create(opts.pprofFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	if opts.resumeFile != "" {
		f, err := os.Open(opts.resumeFile)
		if err != nil {
			return err
		}
		ck, err := core.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := k.ArmResume(ck); err != nil {
			return err
		}
		fmt.Printf("resume           %s (position %d)\n", opts.resumeFile, ck.Pos)
	}
	if opts.checkpointFile != "" {
		k.PauseAfter(opts.checkpointAfter)
	}
	root, finish := b.Program(r, mode)
	simStart := time.Now()
	res, err := r.Run(b.Name(), root)
	if opts.pprofFile != "" {
		pprof.StopCPUProfile()
	}
	if errors.Is(err, core.ErrPaused) && opts.checkpointFile != "" {
		if err := writeFile(opts.checkpointFile, k.Checkpoint); err != nil {
			return err
		}
		fmt.Printf("checkpoint       position %d -> %s (resume with -resume %s and identical flags)\n",
			k.Position(), opts.checkpointFile, opts.checkpointFile)
		// The paused run's trace is the prefix the resumed run's continues.
		return writeOutputs(k, rec, m.Metrics, res.FinalVT, opts)
	}
	if err != nil {
		return err
	}
	if opts.checkpointFile != "" {
		return fmt.Errorf("-checkpoint-after %d was never reached: the run finished at position %d and %s was not written",
			opts.checkpointAfter, k.Position(), opts.checkpointFile)
	}
	simWall := time.Since(simStart)
	ok := finish() == want

	fmt.Printf("benchmark        %s (%s)\n", b.Name(), mode)
	if h := k.Topology().Hierarchy(); h != nil {
		fmt.Printf("machine          %d cores, %s, %s memory, policy %s\n",
			k.NumCores(), h, m.Mem, k.Policy().Name())
	} else {
		fmt.Printf("machine          %d cores, %s mesh, %s memory, policy %s\n",
			k.NumCores(), m.Style, m.Mem, k.Policy().Name())
	}
	fmt.Printf("virtual time     %.0f cycles\n", res.FinalVT.InCycles())
	fmt.Printf("correct output   %v\n", ok)
	fmt.Printf("simulation wall  %v (native %v, normalized %.1fx)\n",
		simWall.Round(time.Microsecond), nativeWall.Round(time.Microsecond),
		float64(simWall)/float64(nativeWall+1))
	if opts.verbose {
		fmt.Printf("kernel steps     %d\n", res.Steps)
		if secs := simWall.Seconds(); secs > 0 {
			fmt.Printf("throughput       %.0f steps/sec host\n", float64(res.Steps)/secs)
		}
		fmt.Printf("messages         %d (%d bytes, %d hops, %d handled out of order)\n",
			res.Messages, res.Bytes, res.Hops, res.OutOfOrder)
		fmt.Printf("policy stalls    %d\n", res.Stalls)
		fmt.Printf("instructions     %d annotated\n", res.Instructions)
		fmt.Printf("host parallelism %.1f cores runnable on average (max %d)\n",
			res.AvgRunnable, res.MaxRunnable)
		st := r.Stats()
		fmt.Printf("task runtime     %+v\n", st)
		if res.Shards > 1 {
			fmt.Printf("engine           %d shards, %d workers\n", res.Shards, k.Workers())
			for i, s := range res.PerShard {
				fmt.Printf("  shard %-3d      %4d cores, %9d steps (%.1f%% of total)\n",
					i, s.Cores, s.Steps, 100*s.Util)
			}
		}
		printBusiest(k)
	}
	if err := writeOutputs(k, rec, m.Metrics, res.FinalVT, opts); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("simulated output diverged from native run")
	}
	return nil
}

// writeOutputs writes the timeline, trace file and metrics the run was
// asked for, up to virtual time end.
func writeOutputs(k *core.Kernel, rec *trace.Recorder, reg *metrics.Registry, end vtime.Time, opts runOpts) error {
	if rec != nil {
		if rec.Truncated() {
			// A truncated trace is a valid prefix, but utilization and
			// message counts only describe the retained window.
			fmt.Fprintf(os.Stderr, "simany: trace truncated: %d events dropped beyond the %d-event limit; analyses cover the retained prefix only\n",
				rec.Dropped(), rec.Limit)
		}
		if opts.timeline {
			fmt.Println()
			if err := trace.Timeline(os.Stdout, rec.Events(), k.NumCores(), end, 72); err != nil {
				return err
			}
			for _, a := range trace.Anomalies(rec.Events(), k.NumCores(), end) {
				fmt.Fprintln(os.Stderr, "simany: trace anomaly:", a)
			}
		}
		if opts.traceFile != "" {
			write := rec.WriteText
			if strings.HasSuffix(opts.traceFile, ".json") {
				write = func(w io.Writer) error { return trace.WriteChrome(w, rec.Events(), k.NumCores(), end) }
			}
			if err := writeFile(opts.traceFile, write); err != nil {
				return err
			}
			fmt.Printf("trace            %d events -> %s\n", len(rec.Events()), opts.traceFile)
		}
	}
	switch opts.metricsFile {
	case "":
		return nil
	case "-":
		return reg.WriteText(os.Stdout)
	default:
		return writeFile(opts.metricsFile, reg.WriteText)
	}
}

// writeFile creates path and fills it with write, reporting the first
// error of the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printBusiest names the core that started the most tasks, from the
// core.task.starts vector in the kernel's registry.
func printBusiest(k *core.Kernel) {
	starts, busiest := k.Metrics().Vector("core.task.starts", metrics.UnitCount, k.NumCores()).Max()
	fmt.Printf("busiest core     %d (%d task starts)\n", busiest, starts)
}
