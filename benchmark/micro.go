package main

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/harness"
	"simany/internal/mem"
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/rt"
	"simany/internal/topology"
	"simany/internal/trace"
	"simany/internal/vtime"
)

// Micro-drivers: one layer each, fixed operation counts, seeded inputs, one
// warm pass before the timed one. They run in the traced run only and give
// the per-operation costs the end-to-end predictions in the README are
// built from.

// runMicro runs every micro-driver once and returns their metrics.
func runMicro(sz sizes, seed int64) *report {
	out := &report{Metrics: map[string]value{}}
	sendNs, hops := microSend("mesh:8x8", sz.microOps, seed)
	out.set("network.send_ns", "ns", sendNs)
	out.set("network.hops_per_send", "hops", hops)
	sendNs, _ = microSend("chiplet:8x8,4x4", sz.microOps, seed)
	out.set("network.send_ns.chiplet1k", "ns", sendNs)
	out.set("network.route_ns", "ns", microRoute("mesh:8x8", sz.microOps, seed))
	out.set("core.handoff_ns", "ns", microHandoff(sz.handoffSlices, seed))
	out.set("mem.cell_access_ns", "ns", microCellAccess(sz.cellAccesses, seed))
	traceFrac, metricsFrac := microOverhead(sz.overheadDepth, seed)
	out.set("trace.overhead_frac", "frac", traceFrac)
	out.set("metrics.overhead_frac", "frac", metricsFrac)
	return out
}

func mustSpec(spec string) *topology.Topology {
	t, err := topology.ParseSpec(spec)
	if err != nil {
		panic(err) // the specs are constants of this file
	}
	return t
}

// pairs draws n seeded (src, dst) pairs over cores nodes.
func pairs(n, cores int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{rng.Intn(cores), rng.Intn(cores)}
	}
	return out
}

// microSend times network.New + Model.Send over seeded pairs: host ns per
// send and the mean hop count.
func microSend(spec string, ops int, seed int64) (ns, hopsPerSend float64) {
	topo := mustSpec(spec)
	net := network.New(topo, network.DefaultParams())
	ps := pairs(ops, topo.N(), seed)
	pass := func(base int) time.Duration {
		start := time.Now()
		for i, p := range ps {
			net.Send(network.Message{Src: p[0], Dst: p[1], Size: 64, Stamp: vtime.CyclesInt(int64(base + i))})
		}
		return time.Since(start)
	}
	pass(0)
	d := pass(ops)
	_, hops, _ := net.Stats()
	return float64(d.Nanoseconds()) / float64(ops), float64(hops) / float64(2*ops)
}

// microRoute times AppendRoute into a reused buffer.
func microRoute(spec string, ops int, seed int64) float64 {
	topo := mustSpec(spec)
	net := network.New(topo, network.DefaultParams())
	ps := pairs(ops, topo.N(), seed)
	buf := make([]int, 0, topo.N())
	pass := func() time.Duration {
		start := time.Now()
		for _, p := range ps {
			buf = net.AppendRoute(buf[:0], p[0], p[1])
		}
		return time.Since(start)
	}
	pass()
	return float64(pass().Nanoseconds()) / float64(ops)
}

// microHandoff is the cheapest step the kernel can take: two neighbour
// cores on mesh:2x1 with a drift bound of ten cycles run ten-cycle blocks,
// so every step is a stall, a handoff to the other core's task and nothing
// else. Host ns per step.
func microHandoff(slices int, seed int64) float64 {
	run := func() (time.Duration, int64) {
		k := core.New(core.Config{Topo: mustSpec("mesh:2x1"), Policy: core.Spatial{T: vtime.CyclesInt(10)}, Seed: seed})
		for c := 0; c < 2; c++ {
			k.InjectTask(c, "w", func(e *core.Env) {
				for j := 0; j < slices; j++ {
					e.ComputeCycles(10)
				}
			}, nil, 0)
		}
		start := time.Now()
		res, err := k.Run()
		if err != nil {
			panic(err) // compute-only tasks cannot deadlock
		}
		return time.Since(start), res.Steps
	}
	run()
	d, steps := run()
	return ratio(float64(d.Nanoseconds()), float64(steps))
}

// microCellAccess bounces one distributed-memory cell between the two
// cores of mesh:2x1: host ns per DATA_REQUEST round trip.
func microCellAccess(accesses int, seed int64) float64 {
	run := func() (time.Duration, int64) {
		k := core.New(core.Config{Topo: mustSpec("mesh:2x1"), Policy: core.Spatial{T: core.DefaultT},
			Mem: mem.NewDistributed(), Seed: seed})
		r := rt.New(k, nil, rt.DefaultOptions())
		start := time.Now()
		_, err := r.Run("cells", func(e *core.Env) {
			cell := r.NewCell(e, 64, 0)
			touch := func(e *core.Env) {
				for i := 0; i < accesses; i++ {
					r.Access(e, cell, func(d any) any { return d.(int) + 1 })
					e.ComputeCycles(20)
				}
			}
			g := r.NewGroup()
			r.SpawnOrRun(e, g, "peer", 16, touch)
			touch(e)
			r.Join(e, g)
		})
		if err != nil {
			panic(err) // two tasks on one cell cannot deadlock
		}
		return time.Since(start), r.Stats().DataReqs
	}
	run()
	d, reqs := run()
	return ratio(float64(d.Nanoseconds()), float64(reqs))
}

// microOverhead runs the spawn tree plain, with a trace.Recorder and with a
// metrics.Registry attached, interleaved, and returns the two overheads as
// fractions of the plain wall time.
func microOverhead(depth int, seed int64) (traceFrac, metricsFrac float64) {
	run := func(tracer core.Tracer, reg *metrics.Registry) float64 {
		k := core.New(core.Config{Topo: mustSpec("mesh:8x8"), Policy: core.Spatial{T: core.DefaultT},
			Seed: seed, Tracer: tracer, Metrics: reg})
		r := rt.New(k, nil, rt.DefaultOptions())
		start := time.Now()
		if _, err := runTree(r, depth); err != nil {
			panic(err) // the tree joins every task it spawns
		}
		return time.Since(start).Seconds()
	}
	run(nil, nil)
	var plain, traced, metered []float64
	for i := 0; i < 3; i++ {
		plain = append(plain, run(nil, nil))
		traced = append(traced, run(trace.NewRecorder(0), nil))
		metered = append(metered, run(nil, metrics.New()))
	}
	p := median(plain)
	return ratio(median(traced)-p, p), ratio(median(metered)-p, p)
}

// speedupError is the model's accuracy beside its speed: the geometric-mean
// speedup error against the cycle-level reference on the harness's quick
// grid (quicksort and spmxv, uniform mesh, 16 cores), in percent. It is
// deterministic for a seed and is computed once, outside the timed reps.
func speedupError(o options) (float64, error) {
	scale := 1.0
	if o.sz.name == "tiny" {
		scale = 0.25
	}
	h := harness.New(harness.Options{Seed: o.seed, Scale: scale, Quick: true, Benchmarks: []string{"quicksort", "spmxv"}})
	tables, err := h.Figure(harness.FigErrors)
	if err != nil {
		return 0, err
	}
	t := tables[0]
	for _, row := range t.Rows {
		if row[0] != config.Uniform.String() {
			continue
		}
		for i, head := range t.Headers {
			if head == "16" {
				return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(row[i]), "%"), 64)
			}
		}
	}
	return 0, errors.New("no uniform-mesh 16-core cell in the errors table")
}
