package core

import "simany/internal/vtime"

// Policy is a virtual-time synchronization scheme. The kernel consults it
// to decide how far a core may advance before yielding control (Horizon).
// Two rules of the paper are the kernel's, not the policy's: a core
// holding a lock is never stalled, under any scheme (§II.B; policyHorizon
// answers Inf for it without asking the policy), and idle cores relay
// "min neighbor + T" under Spatial, the one policy that reads effective
// times, so the kernel maintains them under Spatial alone (efflazy.go).
//
// The spatial synchronization of the paper is implemented by Spatial;
// package drift provides the related-work alternatives (global quantum,
// bounded slack, LaxP2P, unbounded) behind the same interface.
type Policy interface {
	// Name identifies the policy in results and traces.
	Name() string
	// Horizon returns the largest virtual time core c may reach before it
	// must yield back to the kernel. Crossing the horizon mid-block is
	// allowed (annotation blocks are atomic); the core then stalls until
	// the horizon moves past its clock. The kernel never asks it for a
	// core that holds a lock.
	Horizon(c *Core) vtime.Time
}

// ShardLocalPolicy is implemented by policies whose Horizon is a pure
// function of the core itself (its clock and outstanding birth stamps)
// and its neighbors' effective times: no reads of global machine state
// and no side effects (no RNG draws, no metric probes). The kernel
// relies on that purity twice. Only such policies can drive the sharded
// parallel engine: a configuration asking for more than one shard under a
// policy that does not implement the interface (or returns false) is
// refused (Config.CheckShards).
// And only their stalled cores keep cached runnable keys and sticky
// runnable bits between the invalidation events (docs/scheduler.md);
// under any other policy the scheduler evaluates every stalled core's
// Horizon once per scheduling decision.
type ShardLocalPolicy interface {
	ShardLocal() bool
}

// Spatial is the paper's spatial synchronization: a core may drift at most
// T ahead of the slowest of its topological neighbors (and of the birth
// stamps of tasks it has spawned that have not started yet). Idle cores
// maintain a shadow time of min(neighbors)+T, which the kernel
// reconstructs lazily from the busy frontier (efflazy.go).
type Spatial struct {
	// T is the maximum local drift (100 cycles in the paper's reference
	// configuration).
	T vtime.Time
}

// Name implements Policy.
func (s Spatial) Name() string { return "spatial" }

// ShardLocal implements ShardLocalPolicy: the spatial horizon is a pure
// function of the core's neighbor effective times and birth stamps.
func (s Spatial) ShardLocal() bool { return true }

// Horizon implements Policy.
func (s Spatial) Horizon(c *Core) vtime.Time { return s.relay(c, 0, vtime.Inf) }

// relay is the spatial rule, min(birth stamps, neighbor effective times)
// + T, with the region searches' stop thresholds lo and hi (0 and Inf for
// the exact horizon): past them the result is only on the same side of
// lo + T and hi + T as the exact one.
func (s Spatial) relay(c *Core, lo, hi vtime.Time) vtime.Time {
	m := c.minBirth()
	if m >= lo {
		m = min(m, c.dom.minNeighborEff(c, lo, hi))
	}
	if m == vtime.Inf {
		return vtime.Inf
	}
	return m + s.T
}
