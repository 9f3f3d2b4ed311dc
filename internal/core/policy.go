package core

import "simany/internal/vtime"

// Policy is a virtual-time synchronization scheme. The kernel consults it
// to decide how far a core may advance before yielding control (Horizon).
// What an idle core advertises to its neighbors is not the policy's call:
// a policy that relays shadow times through idle cores says so through
// IdleRelayPolicy and the kernel evaluates the relay rule itself
// (efflazy.go); under every other policy nobody reads effective times
// and the kernel does not maintain them.
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
	// the horizon moves past its clock.
	Horizon(c *Core) vtime.Time
}

// ShardLocalPolicy is implemented by policies whose Horizon depends only
// on the core itself and its neighbors' effective times — never on global
// machine state. Only such policies can drive the sharded parallel
// engine: a policy that does not implement the interface (or returns
// false) forces the sequential engine regardless of Config.Shards.
type ShardLocalPolicy interface {
	ShardLocal() bool
}

// Spatial is the paper's spatial synchronization: a core may drift at most
// T ahead of the slowest of its topological neighbors (and of the birth
// stamps of tasks it has spawned that have not started yet). Idle cores
// maintain a shadow time of min(neighbors)+T.
type Spatial struct {
	// T is the maximum local drift (100 cycles in the paper's reference
	// configuration).
	T vtime.Time
}

// Name implements Policy.
func (s Spatial) Name() string { return "spatial" }

// ShardLocal implements ShardLocalPolicy: spatial decisions consult only
// neighbor proxies and local birth stamps.
func (s Spatial) ShardLocal() bool { return true }

// HorizonCacheable implements CacheableHorizonPolicy: the spatial horizon
// is a pure function of the core's neighbor proxies, birth stamps and
// lock depth — exactly the inputs the indexed scheduler invalidates on —
// so it may be cached between those events.
func (s Spatial) HorizonCacheable() bool { return true }

// IdleRelay implements IdleRelayPolicy: an idle core's shadow time is the
// relay rule "min neighbor effective time plus T", which the kernel
// reconstructs lazily from the busy frontier (efflazy.go).
func (s Spatial) IdleRelay() (vtime.Time, bool) { return s.T, true }

// Horizon implements Policy.
func (s Spatial) Horizon(c *Core) vtime.Time {
	if c.lockDepth > 0 {
		// Lock-holder exemption (§II.B): run until the lock is released.
		return vtime.Inf
	}
	m := c.dom.minNeighborEff(c)
	if b := c.minBirth(); b < m {
		m = b
	}
	if m == vtime.Inf {
		return vtime.Inf
	}
	return m + s.T
}
