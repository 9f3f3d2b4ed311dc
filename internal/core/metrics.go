package core

import (
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/vtime"
)

// kernelMetrics holds the kernel's standard instruments in an attached
// metrics registry (Config.Metrics). Every instrument follows the
// registry's stripe discipline — shard workers write only their own
// stripe during rounds, the single-threaded barrier may write any — so
// recording is lock-free and the merged snapshot is bitwise identical at
// every worker count (docs/observability.md lists the catalogue).
// The instrument pointers below alias series owned by reg; newKernelMetrics
// sets them once and nothing reassigns them.
type kernelMetrics struct {
	reg *metrics.Registry

	// linkWait is the distribution of virtual time messages spent waiting
	// for a busy link (the network's per-link next-free contention model).
	linkWait *metrics.Histogram //simany:derived alias into reg, set once by newKernelMetrics
	// msgLatency is the end-to-end message latency distribution
	// (arrival − emission stamp, including contention and FIFO clamping).
	msgLatency *metrics.Histogram //simany:derived alias into reg, set once by newKernelMetrics
	// barriers counts shard rounds (= barrier merges) executed.
	barriers *metrics.Counter //simany:derived alias into reg, set once by newKernelMetrics
	// barrierStall accumulates, per shard, the virtual time of each round
	// quantum the shard could not fill with local work — the deterministic
	// analogue of "time spent waiting at the barrier".
	barrierStall *metrics.Counter //simany:derived alias into reg, set once by newKernelMetrics
	// roundSteps is the distribution of scheduling steps a shard took per
	// round (shape of the load balance).
	roundSteps *metrics.Histogram //simany:derived alias into reg, set once by newKernelMetrics
	// driftSpread samples, at every barrier, the clock spread between the
	// fastest and slowest busy cores — the measured counterpart of
	// DriftBound.
	driftSpread *metrics.Histogram //simany:derived alias into reg, set once by newKernelMetrics
}

// newKernelMetrics widens the registry to the shard count and creates the
// kernel's instruments. Runs at construction time, single-threaded.
func newKernelMetrics(reg *metrics.Registry, shards int) *kernelMetrics {
	reg.SetShards(shards)
	tb := metrics.DefaultTimeBounds()
	return &kernelMetrics{
		reg:          reg,
		linkWait:     reg.Histogram("net.link.wait", metrics.UnitTime, tb),
		msgLatency:   reg.Histogram("net.msg.latency", metrics.UnitTime, tb),
		barriers:     reg.Counter("shard.barrier.count", metrics.UnitCount),
		barrierStall: reg.Counter("shard.barrier.stall", metrics.UnitTime),
		roundSteps:   reg.Histogram("shard.round.steps", metrics.UnitCount, metrics.DefaultCountBounds()),
		driftSpread:  reg.Histogram("drift.spread", metrics.UnitTime, tb),
	}
}

// Metrics returns the attached registry (nil when none was configured).
func (k *Kernel) Metrics() *metrics.Registry {
	if k.met == nil {
		return nil
	}
	return k.met.reg
}

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
