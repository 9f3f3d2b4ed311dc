package core

import (
	"fmt"

	"simany/internal/network"
	"simany/internal/vtime"
)

// Barrier validation hooks the two paper-level guarantees directly into
// the barrier, which is single-threaded by construction. (Historically it
// was the only way to check a sharded run — installing a Tracer used to
// demote the kernel to sequential execution. Tracers are shard-safe now,
// delivered at barriers from per-shard buffers, but these checks remain
// the cheapest always-on validation because they never materialize an
// event stream.) The invariants:
//
//   - per-(src,dst) FIFO: messages merged at barriers must carry
//     non-decreasing emission stamps for each ordered core pair, and every
//     arrival must be at or after its stamp (§II.B — FIFO channels are
//     what lets handlers tolerate bounded out-of-order arrival without
//     rollback);
//   - the global drift bound: after each barrier the clocks of all busy
//     cores must lie within Diameter × T (+ the round quantum under
//     sharding) plus a caller-supplied slack for workload block
//     granularity (§II.A).
//
// A violation surfaces both from Kernel.Run (the run aborts with the
// error) and from Kernel.Validate.

// barrierCheck is the armed validator state. It is only ever touched from
// barrier context or before Run, so it needs no locking.
type barrierCheck struct {
	slack    vtime.Time
	fifoLast map[[2]int32]vtime.Time // (src,dst) -> last merged stamp
	err      error
}

// EnableBarrierValidation arms continuous invariant checking at every
// shard barrier. slack is added to the theoretical drift bound to absorb
// workload block granularity: a core overshoots its horizon by at most one
// uninterruptible compute block, so 2×block + T matches the repo's
// invariant tests. Call before Run; enabling mid-run would see a partial
// FIFO history.
func (k *Kernel) EnableBarrierValidation(slack vtime.Time) {
	k.bcheck = &barrierCheck{
		slack:    slack,
		fifoLast: make(map[[2]int32]vtime.Time),
	}
}

// recordMsg checks one barrier-merged message against the FIFO stamp
// invariant. Only top-level merged items are recorded: messages a handler
// emits while the barrier drains are same-shard deliveries whose ordering
// is the sequential engine's, not the merge's.
func (bc *barrierCheck) recordMsg(msg network.Message) {
	if bc.err != nil {
		return
	}
	if msg.Arrival < msg.Stamp {
		bc.err = fmt.Errorf("core: barrier message %d->%d arrives at %v before its emission stamp %v",
			msg.Src, msg.Dst, msg.Arrival, msg.Stamp)
		return
	}
	key := [2]int32{int32(msg.Src), int32(msg.Dst)}
	if last, ok := bc.fifoLast[key]; ok && msg.Stamp < last {
		bc.err = fmt.Errorf("core: FIFO violation %d->%d: barrier merged stamp %v after already applying stamp %v",
			msg.Src, msg.Dst, msg.Stamp, last)
		return
	}
	bc.fifoLast[key] = msg.Stamp
}

// barrierInvariants is the per-barrier check the sharded run loop executes
// after refreshEff: any FIFO violation recorded while draining, then the
// global drift bound over the refreshed clocks.
func (k *Kernel) barrierInvariants() error {
	if err := k.bcheck.err; err != nil {
		return err
	}
	return k.CheckDriftBound(k.bcheck.slack)
}

// DriftBound returns the policy-guaranteed maximum clock spread between
// busy cores: Diameter × T for the spatial policy (§II.A), plus the round
// quantum under sharded execution (cross-shard proxies freeze for one
// round, letting a core overrun by at most the quantum). It returns
// vtime.Inf when the policy provides no spatial guarantee or the topology
// is disconnected.
func (k *Kernel) DriftBound() vtime.Time {
	if !k.effLazy {
		return vtime.Inf
	}
	if k.diam == -2 {
		k.diam = k.topo.Diameter()
	}
	if k.diam < 0 {
		return vtime.Inf
	}
	bound := vtime.Time(k.diam) * k.relayDelta
	if k.sharded {
		bound += k.quantum
	}
	return bound
}

// CheckDriftBound verifies that the spread between the fastest and slowest
// busy cores' clocks stays within DriftBound() + slack. Idle cores are
// excluded: a core with nothing to run keeps a stale clock and rejoins at
// its wake-up time. With fewer than two busy cores, or no finite bound,
// the check passes trivially.
func (k *Kernel) CheckDriftBound(slack vtime.Time) error {
	bound := k.DriftBound()
	if bound == vtime.Inf {
		return nil
	}
	lo, hi := vtime.Inf, vtime.Time(0)
	busy := 0
	for _, c := range k.cores {
		if c.idle {
			continue
		}
		busy++
		lo, hi = vtime.Min(lo, c.vt), vtime.Max(hi, c.vt)
	}
	if busy < 2 {
		return nil
	}
	if hi-lo > bound+slack {
		return fmt.Errorf("core: drift bound violated: busy-core spread %v exceeds %v (bound %v + slack %v)",
			hi-lo, bound+slack, bound, slack)
	}
	return nil
}
