package core

import (
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/vtime"
)

// counters are the kernel's always-on instruments in its root registry
// (Kernel.Metrics; docs/observability.md lists the catalogue): vectors
// with one entry per core, written only by the worker driving the core's
// shard, and counters striped by shard. They are set once by newCounters.
type counters struct {
	blocks, instructions, stalls, taskStarts, switches, compute, mem *metrics.Vector
	steps, runnable, handled, ooo                                    *metrics.Counter
}

func newCounters(reg *metrics.Registry, cores int) counters {
	vec := func(name string) *metrics.Vector { return reg.Vector(name, metrics.UnitCount, cores) }
	cnt := func(name string) *metrics.Counter { return reg.Counter(name, metrics.UnitCount) }
	return counters{
		blocks:       vec("core.blocks"),
		instructions: vec("core.instructions"),
		stalls:       vec("core.stalls"),
		taskStarts:   vec("core.task.starts"),
		switches:     vec("core.switches"),
		compute:      reg.Vector("core.compute", metrics.UnitTime, cores),
		mem:          reg.Vector("core.mem", metrics.UnitTime, cores),
		steps:        cnt("core.steps"),
		runnable:     cnt("core.runnable"),
		handled:      cnt("core.msgs.handled"),
		ooo:          cnt("core.msgs.ooo"),
	}
}

// kernelMetrics holds the instruments recorded only into a caller-supplied
// registry (Config.Metrics): histograms and the per-round barrier record,
// whose cost an unobserved run does not pay. newKernelMetrics sets them.
type kernelMetrics struct {
	// linkWait is the distribution of virtual time messages spent waiting
	// for a busy link (the network's per-link next-free contention model).
	linkWait *metrics.Histogram //simany:derived alias into the registry, set once by newKernelMetrics
	// msgLatency is the end-to-end message latency distribution
	// (arrival − emission stamp, including link contention).
	msgLatency *metrics.Histogram //simany:derived alias into the registry, set once by newKernelMetrics
	// barriers counts shard rounds (= barrier merges) executed.
	barriers *metrics.Counter //simany:derived alias into the registry, set once by newKernelMetrics
	// barrierStall accumulates, per shard, the virtual time of each round
	// quantum the shard could not fill with local work — the deterministic
	// analogue of "time spent waiting at the barrier".
	barrierStall *metrics.Counter //simany:derived alias into the registry, set once by newKernelMetrics
	// roundSteps is the distribution of scheduling steps a shard took per
	// round (shape of the load balance).
	roundSteps *metrics.Histogram //simany:derived alias into the registry, set once by newKernelMetrics
	// driftSpread samples, at every barrier, the clock spread between the
	// fastest and slowest busy cores — the measured counterpart of
	// DriftBound.
	driftSpread *metrics.Histogram //simany:derived alias into the registry, set once by newKernelMetrics
}

// newKernelMetrics widens the registry to the shard count and creates the
// caller-registry instruments. Runs at construction time, single-threaded.
func newKernelMetrics(reg *metrics.Registry, shards int) *kernelMetrics {
	reg.SetShards(shards)
	tb := metrics.DefaultTimeBounds()
	return &kernelMetrics{
		linkWait:     reg.Histogram("net.link.wait", metrics.UnitTime, tb),
		msgLatency:   reg.Histogram("net.msg.latency", metrics.UnitTime, tb),
		barriers:     reg.Counter("shard.barrier.count", metrics.UnitCount),
		barrierStall: reg.Counter("shard.barrier.stall", metrics.UnitTime),
		roundSteps:   reg.Histogram("shard.round.steps", metrics.UnitCount, metrics.DefaultCountBounds()),
		driftSpread:  reg.Histogram("drift.spread", metrics.UnitTime, tb),
	}
}

// Metrics returns the kernel's registry, the one stats root every
// component registers its counters in (Config.Metrics or the kernel's own).
func (k *Kernel) Metrics() *metrics.Registry { return k.reg }

// netObserver forwards the network model's contention observations into
// the registry, striped by the shard owning the waiting link's node. That
// node is on the message's route: during a round the whole route belongs
// to the executing shard (cross-shard routes are deferred to the barrier),
// so the stripe is always the writing thread's own.
type netObserver struct{ k *Kernel }

var _ network.Observer = netObserver{}

// LinkWait implements network.Observer.
func (o netObserver) LinkWait(node, nbIdx int, wait vtime.Time) {
	o.k.met.linkWait.ObserveTime(o.k.part[node], wait)
}

// recordBarrier captures the per-round instruments after a sharded round
// finished and before the next one starts. minKey/limit are the round's
// window; the call is single-threaded (barrier context).
//
//simany:barrier
func (k *Kernel) recordBarrier(minKey, limit vtime.Time) {
	m := k.met
	m.barriers.Inc(0)
	lo, hi := vtime.Inf, vtime.Time(0)
	busyTotal := 0
	for _, d := range k.domains {
		m.roundSteps.Observe(d.id, int64(d.roundSteps))
		if limit == vtime.Inf {
			continue
		}
		span := limit - minKey
		// How far into the round window the shard's busy cores got; a
		// shard with no local work "stalls" for the whole quantum.
		dhi := minKey
		for _, c := range d.cores {
			if !c.idle {
				busyTotal++
				if c.vt > dhi {
					dhi = c.vt
				}
				lo, hi = vtime.Min(lo, c.vt), vtime.Max(hi, c.vt)
			}
		}
		unused := limit - dhi
		if unused < 0 {
			unused = 0
		}
		if unused > span {
			unused = span
		}
		m.barrierStall.AddTime(d.id, unused)
	}
	if busyTotal >= 2 {
		m.driftSpread.ObserveTime(0, hi-lo)
	}
}
