// Package drift implements the related-work virtual-time synchronization
// schemes that SiMany's spatial synchronization is compared against (§VII):
//
//   - GlobalQuantum: WWT-style quantum-based global barriers.
//   - BoundedSlack: SlackSim's bounded slack — every core may run ahead of
//     the current global time by at most a fixed window.
//   - LaxP2P: Graphite's distributed scheme — a core periodically checks
//     its progress against a randomly chosen core and sleeps if it is more
//     than the slack ahead.
//   - Unbounded: SlackSim's unbound slack — no synchronization at all.
//   - Lockstep: a conservative strict-global-order scheduler; events are
//     processed exactly in virtual-time order. The cycle-level reference
//     simulator runs on top of it.
//
// All of them implement core.Policy, so any simulation can be re-run under
// a different scheme by switching one configuration field — this powers the
// ablation benchmarks.
package drift

import (
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/vtime"
)

// probe records how far ahead of a scheme's reference point (the global
// minimum, a referee's clock) the deciding core sits, clamped at zero —
// the measured drift the scheme's slack parameter bounds. The histograms
// feed the deterministic metrics registry (docs/observability.md,
// "drift-to-bound"). These global schemes run on the sequential engine
// (none of them is shard-local), so stripe 0 is always the caller's own.
func probe(h *metrics.Histogram, ahead vtime.Time) {
	if h == nil {
		return
	}
	if ahead < 0 {
		ahead = 0
	}
	h.ObserveTime(0, ahead)
}

// GlobalQuantum is a quantum-based global synchronization: virtual time is
// divided into windows of Q; no core may enter window w+1 before every busy
// core has finished window w.
type GlobalQuantum struct {
	Q vtime.Time
	// Probe, when non-nil, records the deciding core's lead over the
	// global minimum at every horizon evaluation (bounded by Q when the
	// scheme works as designed).
	Probe *metrics.Histogram
}

// Name implements core.Policy.
func (GlobalQuantum) Name() string { return "quantum" }

// Horizon implements core.Policy.
func (p GlobalQuantum) Horizon(c *core.Core) vtime.Time {
	if c.LockDepth() > 0 {
		return vtime.Inf
	}
	m := c.Kernel().GlobalMinTime()
	if m == vtime.Inf {
		return vtime.Inf
	}
	probe(p.Probe, c.VT()-m)
	// End of the window containing the globally slowest core.
	return (m/p.Q + 1) * p.Q
}

// BoundedSlack lets every core run ahead of the current global minimum
// virtual time by at most W (SlackSim's bounded slack scheme).
type BoundedSlack struct {
	W vtime.Time
	// Probe, when non-nil, records the deciding core's lead over the
	// global minimum at every horizon evaluation (bounded by W).
	Probe *metrics.Histogram
}

// Name implements core.Policy.
func (BoundedSlack) Name() string { return "bounded-slack" }

// Horizon implements core.Policy.
func (p BoundedSlack) Horizon(c *core.Core) vtime.Time {
	if c.LockDepth() > 0 {
		return vtime.Inf
	}
	m := c.Kernel().GlobalMinTime()
	if m == vtime.Inf {
		return vtime.Inf
	}
	probe(p.Probe, c.VT()-m)
	return m + p.W
}

// Lockstep is the conservative strict-order scheduler used by the
// cycle-level reference simulator: a core may only advance while it is the
// globally earliest busy core, so all interactions are processed in exact
// virtual-time order.
type Lockstep struct{}

// Name implements core.Policy.
func (Lockstep) Name() string { return "lockstep" }

// Horizon implements core.Policy.
func (Lockstep) Horizon(c *core.Core) vtime.Time {
	if c.LockDepth() > 0 {
		return vtime.Inf
	}
	k := c.Kernel()
	// Run until the earliest other core's next event; the kernel always
	// schedules the earliest runnable core, so ordering is exact at block
	// granularity.
	m := vtime.Inf
	for i := 0; i < k.NumCores(); i++ {
		o := k.Core(i)
		if o.ID != c.ID {
			if t := o.NextEventTime(); t < m {
				m = t
			}
		}
	}
	return m
}

// Unbounded never synchronizes: every core runs to completion
// independently (SlackSim's unbound slack).
type Unbounded struct{}

// Name implements core.Policy.
func (Unbounded) Name() string { return "unbounded" }

// Horizon implements core.Policy.
func (Unbounded) Horizon(*core.Core) vtime.Time { return vtime.Inf }

// ShardLocal implements core.ShardLocalPolicy: Unbounded consults no state
// at all, so it can drive the sharded engine.
func (Unbounded) ShardLocal() bool { return true }

// HorizonCacheable implements core.CacheableHorizonPolicy: a constant-Inf
// horizon is trivially pure, so Unbounded runs on the indexed scheduler.
//
// The other schemes in this package deliberately do NOT implement the
// interface: their horizons read global machine state (GlobalMinTime,
// every other core's NextEventTime) and have per-evaluation side effects
// (LaxP2P draws a referee from the core's RNG, the Probe histograms count
// evaluations), so the reference scan — which evaluates Horizon for every
// stalled core at every scheduling decision — is the only implementation
// that reproduces their published behavior.
func (Unbounded) HorizonCacheable() bool { return true }

// LaxP2P approximates Graphite's LaxP2P: each time a core is about to run,
// it checks its progress against a randomly chosen other core; if it is
// more than Slack ahead of that referee it goes to sleep until the referee
// catches up (here: its horizon becomes referee+Slack).
type LaxP2P struct {
	Slack vtime.Time
	// Probe, when non-nil, records the deciding core's lead over its
	// randomly drawn referee at every horizon evaluation (the quantity the
	// scheme compares against Slack).
	Probe *metrics.Histogram
}

// Name implements core.Policy.
func (LaxP2P) Name() string { return "laxp2p" }

// Horizon implements core.Policy.
func (p LaxP2P) Horizon(c *core.Core) vtime.Time {
	if c.LockDepth() > 0 {
		return vtime.Inf
	}
	k := c.Kernel()
	n := k.NumCores()
	if n == 1 {
		return vtime.Inf
	}
	// Pick a random referee other than c (deterministic via the core's own
	// seeded rng, so the pick sequence does not depend on how other cores'
	// horizon checks interleave).
	ref := c.Rand().Intn(n - 1)
	if ref >= c.ID {
		ref++
	}
	o := k.Core(ref)
	t := o.NextEventTime()
	if t == vtime.Inf {
		return vtime.Inf
	}
	probe(p.Probe, c.VT()-t)
	return t + p.Slack
}
