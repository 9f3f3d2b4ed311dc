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
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/rt"
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
		tCycles   = fs.Float64("T", 100, "maximum local drift T in cycles (spatial sync)")
		seed      = fs.Int64("seed", 42, "random seed")
		shards    = fs.Int("shards", 1, "topology partitions for the parallel engine (1 = sequential)")
		workers   = fs.Int("workers", 0, "host threads driving the shards (0 = all CPUs, capped at -shards)")
		scale     = fs.Float64("scale", 1, "dataset scale factor (≥1 approaches paper-sized inputs)")
		verbose   = fs.Bool("v", false, "print runtime statistics")
		traceFile = fs.String("trace", "", "write an event trace to this file (.json = Chrome/Perfetto trace_event format, otherwise text)")
		timeline  = fs.Bool("timeline", false, "print an ASCII per-core activity timeline")
		metricsF  = fs.String("metrics", "", "write the deterministic metrics snapshot to this file (\"-\" = stdout)")
		pprofF    = fs.String("pprof", "", "write a host CPU profile of the simulation to this file")
		machineF  = fs.String("machine", "", "load the architecture from a machine description file (overrides -cores/-style/-mem/-policy/-T)")
		ckptF     = fs.String("checkpoint", "", "pause at the -checkpoint-after position and write a checkpoint to this file")
		ckptAfter = fs.Int64("checkpoint-after", 0, "engine position (barriers for -shards > 1, steps otherwise) to checkpoint at; requires -checkpoint")
		resumeF   = fs.String("resume", "", "resume from a checkpoint file written by -checkpoint (same benchmark, seed, scale and machine flags required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptF != "" && *ckptAfter <= 0 {
		return fmt.Errorf("-checkpoint requires -checkpoint-after N (N > 0)")
	}

	b, err := bench.ByName(*benchName)
	if err != nil {
		return err
	}
	var m config.Machine
	if *machineF != "" {
		var err error
		m, err = config.LoadMachineFile(*machineF)
		if err != nil {
			return err
		}
		if m.Seed == 0 {
			m.Seed = *seed
		}
		m.Shards, m.Workers = *shards, *workers
		mode := bench.Shared
		if m.Mem == config.DistributedMem {
			mode = bench.Distributed
		}
		return execute(b, m, mode, *seed, *scale, runOpts{
			verbose: *verbose, traceFile: *traceFile, timeline: *timeline,
			metricsFile: *metricsF, pprofFile: *pprofF,
			checkpointFile: *ckptF, checkpointAfter: *ckptAfter, resumeFile: *resumeF,
		})
	}
	m = config.Machine{Cores: *cores, TopoSpec: *topoSpec, T: vtime.Cycles(*tCycles), Policy: *policy, Seed: *seed,
		Shards: *shards, Workers: *workers}
	switch *style {
	case "uniform":
		m.Style = config.Uniform
	case "polymorphic":
		m.Style = config.Polymorphic
	case "clustered4":
		m.Style = config.Clustered4
	case "clustered8":
		m.Style = config.Clustered8
	default:
		return fmt.Errorf("unknown style %q", *style)
	}
	mode := bench.Shared
	switch *memKind {
	case "shared":
		m.Mem = config.SharedMem
	case "coherent", "shared+coherence":
		m.Mem = config.SharedMemCoherent
	case "distributed", "dist":
		m.Mem = config.DistributedMem
		mode = bench.Distributed
	default:
		return fmt.Errorf("unknown memory kind %q", *memKind)
	}

	return execute(b, m, mode, *seed, *scale, runOpts{
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
func execute(b bench.Benchmark, m config.Machine, mode bench.Mode, seed int64, scale float64, opts runOpts) error {
	verbose, traceFile, timeline := opts.verbose, opts.traceFile, opts.timeline
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
	if n := k.ClampNotice(); n != "" {
		fmt.Fprintln(os.Stderr, n)
	}
	if n := k.DemotionNotice(); n != "" {
		fmt.Fprintln(os.Stderr, n)
	}
	var rec *trace.Recorder
	if traceFile != "" || timeline {
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
		f, cerr := os.Create(opts.checkpointFile)
		if cerr != nil {
			return cerr
		}
		if cerr := k.Checkpoint(f); cerr != nil {
			f.Close()
			return cerr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Printf("checkpoint       position %d -> %s (resume with -resume %s and identical flags)\n",
			k.Position(), opts.checkpointFile, opts.checkpointFile)
		return nil
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
	if verbose {
		fmt.Printf("scheduler        %s\n", k.Scheduler())
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
		printBusiest(k, r)
	}
	if rec != nil {
		if rec.Truncated() {
			// A truncated trace is a valid prefix, but utilization and
			// message counts only describe the retained window.
			fmt.Fprintf(os.Stderr, "simany: trace truncated: %d events dropped beyond the %d-event limit; analyses cover the retained prefix only\n",
				rec.Dropped(), rec.Limit)
		}
		if timeline {
			fmt.Println()
			if err := trace.Timeline(os.Stdout, rec.Events(), k.NumCores(), res.FinalVT, 72); err != nil {
				return err
			}
			for _, a := range trace.Anomalies(rec.Events(), k.NumCores(), res.FinalVT) {
				fmt.Fprintln(os.Stderr, "simany: trace anomaly:", a)
			}
		}
		if traceFile != "" {
			f, err := os.Create(traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			if strings.HasSuffix(traceFile, ".json") {
				err = trace.WriteChrome(f, rec.Events(), k.NumCores(), res.FinalVT)
			} else {
				err = rec.WriteText(f)
			}
			if err != nil {
				return err
			}
			fmt.Printf("trace            %d events -> %s\n", len(rec.Events()), traceFile)
		}
	}
	if opts.metricsFile != "" {
		out := os.Stdout
		if opts.metricsFile != "-" {
			f, err := os.Create(opts.metricsFile)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := m.Metrics.WriteText(out); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("simulated output diverged from native run")
	}
	return nil
}

func printBusiest(k *core.Kernel, r *rt.Runtime) {
	busiest, maxStarts := 0, int64(-1)
	for i := 0; i < k.NumCores(); i++ {
		if s := k.Core(i).Stats().TaskStarts; s > maxStarts {
			busiest, maxStarts = i, s
		}
	}
	fmt.Printf("busiest core     %d (%d task starts)\n", busiest, maxStarts)
}
