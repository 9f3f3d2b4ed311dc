package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	rmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"simany/internal/bench"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/rt"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// fingerprint is every simulated statistic of one simulation. A change that
// only speeds the simulator must leave all of them identical.
type fingerprint struct {
	FinalVT                                   vtime.Time
	Steps, Messages, Hops, Bytes              int64
	Handled, OutOfOrder, Stalls, Instructions int64
	RT                                        rt.Stats
}

func fingerprintOf(res core.Result, r *rt.Runtime) fingerprint {
	fp := fingerprint{
		FinalVT: res.FinalVT, Steps: res.Steps, Messages: res.Messages, Hops: res.Hops,
		Bytes: res.Bytes, Handled: res.Handled, OutOfOrder: res.OutOfOrder, Stalls: res.Stalls,
		Instructions: res.Instructions,
	}
	if r != nil {
		fp.RT = r.Stats()
	}
	return fp
}

// hostDelta is what the Go runtime did during one Run call.
type hostDelta struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64 // seconds
}

// simResult is one simulation of one rep.
type simResult struct {
	name        string
	res         core.Result
	fp          fingerprint
	setup, wall time.Duration
	liveHeap    uint64
	host        hostDelta         // traced reps only
	snap        *metrics.Snapshot // when a registry was attached
	failure     string            // empty when the simulation passed its checks
}

// runSim prepares and runs one simulation. With a tracer it also records
// the spans, a direct PartitionFor call and the runtime's counters around
// Run; none of that happens in a plain rep.
func runSim(s sim, tr *tracer, v variant) simResult {
	out := simResult{name: s.name}
	root := tr.beginSim(s.name)
	defer tr.end(root)

	start := time.Now()
	m, err := s.prepare(tr, v)
	out.setup = time.Since(start)
	if err != nil {
		out.failure = "prepare: " + err.Error()
		return out
	}
	if tr != nil {
		shards := m.k.NumShards()
		if shards < 2 {
			shards = 16
		}
		tr.span("topology.partition_s", func() { topology.PartitionFor(m.k.Topology(), shards) })
	}

	var before hostDelta
	if tr != nil {
		before = readHost()
	}
	var res core.Result
	tr.span("core.run_s", func() {
		start = time.Now()
		res, err = m.run()
		out.wall = time.Since(start)
	})
	if tr != nil {
		after := readHost()
		out.host = hostDelta{after.mallocs - before.mallocs, after.bytes - before.bytes,
			after.gcCPU - before.gcCPU, after.totalCPU - before.totalCPU}
	}

	out.res = res
	out.fp = fingerprintOf(res, m.r)
	switch {
	case err != nil:
		out.failure = "run: " + err.Error()
	case m.check != nil && !m.check():
		out.failure = "simulated output differs from the native run"
	}
	if v.metrics != nil {
		snap := v.metrics.Snapshot()
		out.snap = &snap
	}
	// The finished kernel is still referenced here: this is the memory a
	// user holds when the simulation ends. The collection doubles as the
	// GC between simulations, so no rep starts with another's garbage.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(m)
	return out
}

func readHost() hostDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []rmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rmetrics.Read(samples)
	return hostDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: samples[0].Value.Float64(), totalCPU: samples[1].Value.Float64()}
}

// rep is one pass over every simulation of a workload.
type rep []simResult

func runRep(sims []sim, tr *tracer, v variant) rep {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs()))
	out := make(rep, len(sims))
	for i, s := range sims {
		out[i] = runSim(s, tr, v)
	}
	return out
}

func (r rep) wall() (d time.Duration) {
	for _, s := range r {
		d += s.wall
	}
	return d
}

func (r rep) setup() (d time.Duration) {
	for _, s := range r {
		d += s.setup
	}
	return d
}

func (r rep) steps() (n int64) {
	for _, s := range r {
		n += s.res.Steps
	}
	return n
}

// liveHeapMB is the mean over the rep's simulations of the heap each
// finished kernel holds. The mean, not the maximum: on the dwarfs the maximum
// is quicksort's retained task tree, which moves 10 % with the seed, while
// the other five do not move at all.
func (r rep) liveHeapMB() float64 {
	var b uint64
	for _, s := range r {
		b += s.liveHeap
	}
	return float64(b) / float64(len(r)) / 1e6
}

// value is one reported metric with the samples behind it, so that
// -compare can judge the rep-to-rep spread. Seven to a dozen samples cannot
// support a higher percentile than the maximum.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// report is everything measured on one workload in one run.
type report struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	order     []string         // metric names in emission order, for the table
}

// set reports the median of the samples (0 when there are none).
func (r *report) set(name, unit string, samples ...float64) {
	v := value{Unit: unit, Value: median(samples)}
	if len(samples) > 1 {
		v.Median, v.Max, v.Samples = v.Value, slices.Max(samples), samples
	}
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = v
}

// setBest reports the best rep of an end-to-end metric: the minimum, or the
// maximum when higher is better. On a shared host interference only ever
// adds time, and it comes in episodes that last several reps, so the median
// of a run moves with the neighbours while the best rep does not (README,
// "Steadiness"). The median and the maximum stay in the table and the file.
func (r *report) setBest(name, unit string, higher bool, samples []float64) {
	r.set(name, unit, samples...)
	v := r.Metrics[name]
	if higher {
		v.Value = slices.Max(samples)
	} else {
		v.Value = slices.Min(samples)
	}
	r.Metrics[name] = v
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// options are the run parameters common to every mode.
type options struct {
	sz      sizes
	seed    int64
	reps    int           // timed reps when seconds is 0
	seconds time.Duration // measuring budget; 0 = fixed reps
	golden  goldenSet     // nil = no golden check
}

// more reports whether the timed loop should run rep number done+1. A time
// budget always yields at least atLeast reps.
func (o options) more(done, atLeast int, start time.Time) bool {
	if o.seconds == 0 {
		return done < o.reps
	}
	return done < atLeast || time.Since(start) < o.seconds
}

// checker counts attempted and failed simulations and holds the first
// fingerprint of each, which every later rep must reproduce.
type checker struct {
	rep       *report
	key       string
	golden    goldenSet
	first     map[string]fingerprint
	collected goldenSet
}

func (c *checker) check(r rep, what string) {
	for _, s := range r {
		c.rep.Attempted++
		key := c.key + "/" + s.name
		failure := s.failure
		if failure == "" {
			if first, ok := c.first[s.name]; !ok {
				c.first[s.name] = s.fp
				c.collected[key] = s.fp
				if want, ok := c.golden[key]; c.golden != nil && !ok {
					failure = "no golden fingerprint; run -update-golden"
				} else if ok && want != s.fp {
					failure = fmt.Sprintf("fingerprint %+v differs from golden %+v", s.fp, want)
				}
			} else if first != s.fp {
				failure = fmt.Sprintf("fingerprint %+v differs from the first rep's %+v", s.fp, first)
			}
		}
		if failure != "" {
			c.rep.Failed++
			c.rep.Failures = append(c.rep.Failures, fmt.Sprintf("%s (%s): %s", key, what, failure))
		}
	}
}

// runWorkload measures one workload: plain for the end-to-end metrics, or
// traced for the per-layer ones. End-to-end metrics are never taken from a
// traced run. collected receives the fingerprints seen, for -update-golden.
func runWorkload(w workload, o options, tr *tracer, collected goldenSet) *report {
	out := &report{Workload: w.name, Metrics: map[string]value{}}
	start := time.Now()
	sims, nat := w.sims(o.sz, o.seed, tr)
	chk := &checker{rep: out, key: w.name, golden: o.golden, first: map[string]fingerprint{}, collected: collected}

	// Warm-up: fills the worker pools and page tables, and on sharded-1k
	// runs with two workers, so that the fingerprint equality check is also
	// the Workers=1 versus Workers=2 determinism check.
	chk.check(runRep(sims, nil, variant{workers: parallelWorkers()}), "warm-up")

	if tr == nil {
		measurePlain(out, sims, o, chk)
	} else {
		measureTraced(out, w, sims, nat, o, tr, chk, start)
	}
	out.Correct = out.Failed == 0
	return out
}

func wallSeconds(r rep) float64 { return r.wall().Seconds() }

// measurePlain times reps with nothing attached and reports the end-to-end
// metrics.
func measurePlain(out *report, sims []sim, o options, chk *checker) {
	var reps []rep
	for start := time.Now(); o.more(len(reps), 3, start); {
		r := runRep(sims, nil, variant{})
		chk.check(r, "plain rep")
		reps = append(reps, r)
	}
	out.setBest("sim_wall_s", "s", false, samplesOf(reps, wallSeconds))
	out.setBest("steps_per_s", "1/s", true, samplesOf(reps, func(r rep) float64 {
		return ratio(float64(r.steps()), r.wall().Seconds())
	}))
	out.setBest("setup_s", "s", false, samplesOf(reps, func(r rep) float64 { return r.setup().Seconds() }))
	out.setBest("live_heap_mb", "MB", false, samplesOf(reps, rep.liveHeapMB))
}

// tracedRep is one rep with everything attached: spans, the runtime's
// counters around Run, a CPU profile, and on the sharded workload a metrics
// registry.
type tracedRep struct {
	rep    rep
	self   map[string]time.Duration // span self times, by name
	shares map[string]float64       // host.cpu_share.*
}

func runTracedRep(w workload, sims []sim, tr *tracer) (tracedRep, error) {
	v := variant{}
	if w.sharded {
		v.metrics = metrics.New()
	}
	from := len(tr.spans)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return tracedRep{}, err
	}
	out := tracedRep{rep: runRep(sims, tr, v)}
	pprof.StopCPUProfile()
	out.self = tr.selfSince(from)
	var err error
	out.shares, err = cpuShares(prof.Bytes())
	return out, err
}

// measureTraced runs the micro-drivers and then alternates plain and traced
// reps, so that trace_overhead_frac compares reps made under the same host
// conditions, until the budget that began at start is spent. The sharded
// workload adds a sequential-engine and a two-worker rep to every cycle for
// the same reason.
func measureTraced(out *report, w workload, sims []sim, nat *natives, o options, tr *tracer, chk *checker, start time.Time) {
	micro := runMicro(o.sz, o.seed)
	accuracy := 0.0
	if w.accuracy {
		var err error
		if accuracy, err = speedupError(o); err != nil {
			out.Failures = append(out.Failures, "cl_speedup_err_pct: "+err.Error())
		}
	}

	var plain, seqReps, w2Reps []rep
	var traced []tracedRep
	plainRep := func() {
		r := runRep(sims, nil, variant{})
		chk.check(r, "plain rep")
		plain = append(plain, r)
	}
	for cycle := 0; o.more(cycle, 2, start); cycle++ {
		// Whichever rep runs second in a cycle is a few percent faster, so
		// the two kinds take turns going first.
		if cycle%2 == 0 {
			plainRep()
		}
		t, err := runTracedRep(w, sims, tr)
		if err != nil {
			out.Failures = append(out.Failures, "cpu profile: "+err.Error())
		}
		chk.check(t.rep, "traced rep")
		traced = append(traced, t)
		if cycle%2 == 1 {
			plainRep()
		}
		if w.sharded {
			seqReps = append(seqReps, runRep(sims, nil, variant{seq: true}))
			w2Reps = append(w2Reps, runRep(sims, nil, variant{workers: parallelWorkers()}))
		}
	}

	layerMetrics(out, nat, plain, traced, micro)
	shardMetrics(out, w, median(samplesOf(plain, wallSeconds)), traced, seqReps, w2Reps)
	out.set("cl_speedup_err_pct", "%", accuracy)
}

func samplesOf(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// total is the Fig. 7 base: the native wall time of all six dwarfs. A nil
// natives (a workload with no native counterpart) has none.
func (n *natives) total() (d time.Duration) {
	if n == nil {
		return 0
	}
	for _, w := range n.wall {
		d += w
	}
	return d
}

func (n *natives) wallOf(name string) time.Duration {
	if n == nil {
		return 0
	}
	return n.wall[name]
}

// layerMetrics fills the per-layer metrics every workload reports. A
// metric that does not apply to the workload (a dwarf's wall time on
// spawn-storm, a ratio whose base is zero) reads 0.
func layerMetrics(out *report, nat *natives, plain []rep, traced []tracedRep, micro *report) {
	plainWall := median(samplesOf(plain, wallSeconds))
	tracedWalls := make([]float64, len(traced))
	for i, t := range traced {
		tracedWalls[i] = wallSeconds(t.rep)
	}
	tracedWall := median(tracedWalls)
	out.set("trace_overhead_frac", "frac", ratio(tracedWall-plainWall, plainWall))

	out.set("slowdown_vs_native", "x", ratio(plainWall, nat.total().Seconds()))
	// Natives are measured once, before the reps, so no traced rep holds
	// their span: report the Fig. 7 base itself.
	out.set("bench.native_s", "s", nat.total().Seconds())

	for _, name := range spanNames {
		samples := make([]float64, len(traced))
		for i, t := range traced {
			samples[i] = t.self[name].Seconds()
		}
		out.set(name, "s", samples...)
	}

	// Counts are deterministic: any rep gives them.
	var res core.Result
	var st rt.Stats
	var runnable float64
	for _, s := range plain[0] {
		res.Steps += s.res.Steps
		res.Messages += s.res.Messages
		res.Hops += s.res.Hops
		res.Bytes += s.res.Bytes
		res.Handled += s.res.Handled
		res.OutOfOrder += s.res.OutOfOrder
		res.Stalls += s.res.Stalls
		if s.res.MaxRunnable > res.MaxRunnable {
			res.MaxRunnable = s.res.MaxRunnable
		}
		runnable += s.res.AvgRunnable * float64(s.res.Steps)
		st.Spawns += s.fp.RT.Spawns
		st.Probes += s.fp.RT.Probes
		st.Denied += s.fp.RT.Denied
		st.LocalRuns += s.fp.RT.LocalRuns
		st.Migrations += s.fp.RT.Migrations
		st.DataReqs += s.fp.RT.DataReqs
		st.DataChases += s.fp.RT.DataChases
		st.JoinWaits += s.fp.RT.JoinWaits
	}
	steps := float64(res.Steps)
	stepNs := ratio(plainWall*1e9, steps)
	out.set("core.step_ns", "ns", stepNs)
	out.set("rt.spawn_ns", "ns", ratio(plainWall*1e9, float64(st.Spawns+st.LocalRuns)))
	out.set("core.stalls_per_step", "1/step", ratio(float64(res.Stalls), steps))
	out.set("core.ooo_frac", "frac", ratio(float64(res.OutOfOrder), float64(res.Handled)))
	out.set("core.avg_runnable", "cores", ratio(runnable, steps))
	out.set("core.max_runnable", "cores", float64(res.MaxRunnable))
	out.set("network.msgs_per_step", "1/step", ratio(float64(res.Messages), steps))
	out.set("network.hops_per_msg", "hops", ratio(float64(res.Hops), float64(res.Messages)))
	out.set("network.bytes_per_msg", "B", ratio(float64(res.Bytes), float64(res.Messages)))
	out.set("rt.probe_deny_frac", "frac", ratio(float64(st.Denied), float64(st.Probes)))
	out.set("rt.local_run_frac", "frac", ratio(float64(st.LocalRuns), float64(st.Spawns+st.LocalRuns)))
	out.set("rt.migrations", "count", float64(st.Migrations))
	out.set("rt.join_waits", "count", float64(st.JoinWaits))
	out.set("mem.data_reqs", "count", float64(st.DataReqs))
	out.set("mem.chase_frac", "frac", ratio(float64(st.DataChases), float64(st.DataReqs)))

	for _, name := range bench.Names() {
		var walls []float64
		for _, r := range plain {
			for _, s := range r {
				if s.name == name {
					walls = append(walls, s.wall.Seconds())
				}
			}
		}
		out.set("bench."+name+".sim_wall_s", "s", walls...)
		out.set("bench."+name+".slowdown", "x", ratio(median(walls), nat.wallOf(name).Seconds()))
	}

	var host hostDelta
	for _, t := range traced {
		for _, s := range t.rep {
			host.mallocs += s.host.mallocs
			host.bytes += s.host.bytes
			host.gcCPU += s.host.gcCPU
			host.totalCPU += s.host.totalCPU
		}
	}
	tracedSteps := steps * float64(len(traced))
	out.set("host.allocs_per_step", "1/step", ratio(float64(host.mallocs), tracedSteps))
	out.set("host.bytes_per_step", "B/step", ratio(float64(host.bytes), tracedSteps))
	out.set("host.gc_cpu_frac", "frac", ratio(host.gcCPU, host.totalCPU))
	out.set("host.peak_rss_mb", "MB", peakRSSMB())
	for _, b := range cpuBuckets {
		samples := make([]float64, len(traced))
		for i, t := range traced {
			samples[i] = t.shares[b]
		}
		out.set("host.cpu_share."+b, "frac", samples...)
	}

	for _, name := range micro.order {
		out.set(name, micro.Metrics[name].Unit, micro.Metrics[name].Value)
	}
	// The scheduler plus effective-time self time per step: what is left of
	// a step once the bare handoff is paid. Meaningful where steps send no
	// messages (sparse-100k, dense-1k); reported everywhere, floored at 0.
	schedEff := stepNs - micro.Metrics["core.handoff_ns"].Value
	if schedEff < 0 {
		schedEff = 0
	}
	out.set("core.sched_eff_ns", "ns", schedEff)
}

// spanNames are the layer-boundary spans reported as metrics.
var spanNames = []string{
	"topology.parse_s", "topology.partition_s", "config.build_s", "core.new_s", "rt.new_s",
	"bench.generate_s", "bench.finish_s", "core.run_s",
}

// shardMetrics fills the sharded-engine metrics from the registry the
// traced reps attached and from the interleaved sequential and two-worker
// runs of the same tree. They read 0 on the sequential workloads.
func shardMetrics(out *report, w workload, plainWall float64, traced []tracedRep, seqReps, w2Reps []rep) {
	var barriers, stall, roundSteps, imbalance float64
	if w.sharded {
		s := traced[0].rep[0]
		for _, c := range s.snap.Counters {
			switch c.Name {
			case "shard.barrier.count":
				barriers = float64(c.Value)
			case "shard.barrier.stall":
				stall = vtime.Time(c.Value).InCycles()
			}
		}
		for _, h := range s.snap.Histograms {
			if h.Name == "shard.round.steps" {
				roundSteps = float64(h.Sum)
			}
		}
		var maxSteps int64
		for _, ps := range s.res.PerShard {
			if ps.Steps > maxSteps {
				maxSteps = ps.Steps
			}
		}
		imbalance = ratio(float64(maxSteps)*float64(len(s.res.PerShard)), float64(s.res.Steps))
	}
	out.set("core.shard.barriers", "count", barriers)
	out.set("core.shard.stall_cycles", "cycles", stall)
	out.set("core.shard.steps_per_round", "steps", ratio(roundSteps, barriers))
	out.set("core.shard.imbalance", "x", imbalance)

	wall := func(reps []rep) float64 { return median(samplesOf(reps, wallSeconds)) }
	// Neither ratio is end-to-end: a faster sequential engine would
	// "regress" them. Above 1 the sharded engine, or its second worker,
	// pays for itself.
	out.set("core.shard.speedup_vs_seq", "x", ratio(wall(seqReps), plainWall))
	out.set("core.shard.w2_over_w1", "x", ratio(plainWall, wall(w2Reps)))
}

// peakRSSMB reads the process's high-water resident set (VmHWM). It covers
// the whole process, so it is informational.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1000
		}
	}
	return 0
}
