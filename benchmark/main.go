// Command benchmark is the one benchmark of simulator speed: six named
// workloads, end-to-end metrics from a plain run, per-layer metrics from a
// separate traced run, every simulated output checked. See README.md.
//
//	go run ./benchmark -seed 42                  every workload, plain
//	go run ./benchmark -seed 42 -traced          every workload, traced
//	go run ./benchmark -compare a.json b.json    judge two result files
//
// The driver form runs one workload for a time budget and ends its output
// with one JSON line:
//
//	bash benchmark/run.sh --workload spawn-storm --seed 7 --seconds 14 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// hostInfo is recorded with every result: a number without its host shape
// cannot be compared with anything. GOMAXPROCS and Workers are those of the
// reps the end-to-end metrics come from; ParallelWorkers (and as many Ps) are
// used by the two-worker reps of sharded-1k only.
type hostInfo struct {
	NumCPU          int    `json:"num_cpu"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Workers         int    `json:"workers"`
	ParallelWorkers int    `json:"parallel_workers"`
	GoVersion       string `json:"go_version"`
	Commit          string `json:"commit"`
	Date            string `json:"date"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostInfo  `json:"host"`
	Seed      int64     `json:"seed"`
	Sizes     string    `json:"sizes"`
	Traced    bool      `json:"traced"`
	Workloads []*report `json:"workloads"`
}

// parallelWorkers is the worker count of sharded-1k's two-worker reps: the
// warm-up (the worker-count determinism check) and, in the traced run, the
// reps behind core.shard.w2_over_w1.
func parallelWorkers() int { return min(2, runtime.NumCPU()) }

func currentHost() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: variant{}.procs(), Workers: variant{}.procs(), ParallelWorkers: parallelWorkers(),
		GoVersion: runtime.Version(), Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this workload only and end with the driver's JSON line (default: all)")
	seed := fs.Int64("seed", goldenSeed, "seed of the inputs and of the simulator")
	seconds := fs.Float64("seconds", 0, "measure for this long per workload (0 = -reps timed reps)")
	reps := fs.Int("reps", 7, "timed reps per workload when -seconds is 0")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = plain run (end-to-end metrics)")
	traced := fs.Bool("traced", false, "same as -trace 1")
	tiny := fs.Bool("tiny", false, "toy sizes, for the smoke test")
	update := fs.Bool("update-golden", false, "rewrite "+goldenPath+" from this run (seed 42 only)")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	outPath := fs.String("out", "", "write the results to this JSON file")
	manifest := fs.String("manifest", "BENCHMARK.json", "where -compare reads the bounds")
	tracePath := fs.String("tracefile", "benchmark/out/trace.json", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, *manifest, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *update && *seed != goldenSeed {
		return fmt.Errorf("-update-golden needs -seed %d", goldenSeed)
	}

	o := options{sz: fullSizes, seed: *seed, reps: *reps, seconds: time.Duration(*seconds * float64(time.Second))}
	var tr *tracer
	if *traced || *trace == 1 {
		tr = newTracer()
	}
	if *tiny {
		o.sz = tinySizes
	}
	if *seed == goldenSeed && !*update {
		g, err := loadGolden(o.sz.name)
		if err != nil {
			return fmt.Errorf("golden fingerprints: %w", err)
		}
		o.golden = g
	}

	selected := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	file := resultFile{Host: currentHost(), Seed: *seed, Sizes: o.sz.name, Traced: tr != nil}
	fmt.Fprintf(stdout, "host: %d CPUs, GOMAXPROCS %d, workers %d (%d in sharded-1k's two-worker reps), %s, commit %s, %s; seed %d, %s sizes\n",
		file.Host.NumCPU, file.Host.GOMAXPROCS, file.Host.Workers, file.Host.ParallelWorkers, file.Host.GoVersion,
		file.Host.Commit, file.Host.Date, *seed, o.sz.name)
	collected := goldenSet{}
	for _, w := range selected {
		rep := runWorkload(w, o, tr, collected)
		file.Workloads = append(file.Workloads, rep)
		printReport(stdout, rep)
	}
	if tr != nil {
		if err := tr.writeChrome(*tracePath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if *update {
		if err := updateGolden(goldenPath, o.sz.name, collected); err != nil {
			return fmt.Errorf("updating golden fingerprints: %w", err)
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *workloadName != "" {
		return printDriverLine(stdout, file.Workloads[0])
	}
	for _, rep := range file.Workloads {
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d simulations failed", rep.Workload, rep.Failed, rep.Attempted)
		}
	}
	return nil
}

// printReport prints every metric of one workload by name with its unit.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "\n%s: %d simulations, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, name := range r.order {
		v := r.Metrics[name]
		if len(v.Samples) > 1 {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s median %.6g  max %.6g  n=%d\n", name, v.Value, v.Unit, v.Median, v.Max, len(v.Samples))
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
}

// printDriverLine ends the output with the one JSON object the driver
// reads: exactly correct, attempted, failed and metrics.
func printDriverLine(w io.Writer, r *report) error {
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]driverValue{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = driverValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
