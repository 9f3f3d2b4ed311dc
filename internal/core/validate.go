package core

import (
	"fmt"

	"simany/internal/vtime"
)

// Validate checks the kernel's internal invariants and returns the first
// violation found, or nil. It is intended for tests and for debugging
// custom policies or memory systems: install it behind a Tracer (see
// ValidatingTracer) to check consistency continuously during a run.
//
// Checked invariants:
//   - when the policy relays effective times: a busy core never
//     advertises a time ahead of its own clock, the anchor heap holds
//     exactly each domain's busy cores in heap order with matching slot
//     back-pointers, the pruning floor equals the minimum anchor (busy
//     cores and frozen foreign proxies), and every fresh idle memo equals
//     a fixpoint recomputed independently by plain relaxation;
//   - the cached minimum birth stamp matches the birth map;
//   - the cached queue minima (ready arrivals, continuation resumes)
//     match a recomputation from the queues;
//   - with the indexed scheduler active: heap positions, heap order and
//     queue membership/keys agree with the reference runnable computation
//     (the mid-step core excepted — its entry settles at step end);
//   - lock depths are non-negative;
//   - task states are consistent with the queue each task sits in;
//   - the busy-core counter matches the per-core idle flags;
//   - with EnableBarrierValidation armed: per-(src,dst) FIFO stamps at
//     barrier merges and the global drift bound (barriercheck.go).
func (k *Kernel) Validate() error {
	busy := 0
	for _, c := range k.cores {
		if !c.idle {
			busy++
			// Virtual-time updates propagate at yield points, so a busy
			// core's advertised time may lag its clock mid-step — but it
			// must never lead it.
			if k.effLazy && c.eff > c.vt {
				return fmt.Errorf("core %d: busy but advertises future time %v (clock %v)", c.ID, c.eff, c.vt)
			}
		}
		if c.lockDepth < 0 {
			return fmt.Errorf("core %d: negative lock depth %d", c.ID, c.lockDepth)
		}
		min := vtime.Inf
		for _, b := range c.births {
			if b < min {
				min = b
			}
		}
		if got := c.minBirth(); got != min {
			return fmt.Errorf("core %d: birth cache %v, map minimum %v", c.ID, got, min)
		}
		rm := vtime.Inf
		for _, t := range c.ready {
			if t.arrival < rm {
				rm = t.arrival
			}
		}
		if got := c.minReadyArrival(); got != rm {
			return fmt.Errorf("core %d: ready-min cache %v, queue minimum %v", c.ID, got, rm)
		}
		cm := vtime.Inf
		for _, t := range c.conts {
			if t.resume < cm {
				cm = t.resume
			}
		}
		if got := c.minContResume(); got != cm {
			return fmt.Errorf("core %d: conts-min cache %v, queue minimum %v", c.ID, got, cm)
		}
		if c.current != nil && c.current.state != TaskRunning {
			return fmt.Errorf("core %d: current task %q in state %d", c.ID, c.current.Name, c.current.state)
		}
		for _, t := range c.conts {
			if t.state != TaskReady {
				return fmt.Errorf("core %d: continuation %q in state %d", c.ID, t.Name, t.state)
			}
		}
		for _, t := range c.ready {
			if t.state != TaskReady {
				return fmt.Errorf("core %d: queued task %q in state %d", c.ID, t.Name, t.state)
			}
		}
	}
	tracked := 0
	for _, d := range k.domains {
		tracked += d.busy
	}
	if busy != tracked {
		return fmt.Errorf("busy-core counter %d, actual %d", tracked, busy)
	}
	if k.effLazy {
		if err := k.checkLazyEff(); err != nil {
			return err
		}
	}
	for _, d := range k.domains {
		for id, t := range d.blocked {
			if t.state != TaskBlocked {
				return fmt.Errorf("blocked registry holds task %d in state %d", id, t.state)
			}
		}
	}
	for _, d := range k.domains {
		if err := d.checkRunq(); err != nil {
			return err
		}
	}
	// With barrier validation armed (EnableBarrierValidation), surface any
	// FIFO violation recorded at a barrier merge and re-check the global
	// drift bound with the caller's slack.
	if k.bcheck != nil {
		if err := k.bcheck.err; err != nil {
			return err
		}
		if err := k.CheckDriftBound(k.bcheck.slack); err != nil {
			return err
		}
	}
	return nil
}

// checkLazyEff verifies the effective-time bookkeeping (efflazy.go): the
// anchor heap agrees with the idle flags and its own order, the pruning
// floors are exact, and every fresh memo matches a fixpoint
// recomputed by plain relaxation over the domain (anchored at busy cores and
// frozen foreign proxies — exactly the inputs lazyFix reads).
func (k *Kernel) checkLazyEff() error {
	// coreID-indexed scratch for the reference fixpoint.
	fix := make([]vtime.Time, len(k.cores))
	for _, d := range k.domains {
		if len(d.busyList.heap) != d.busy {
			return fmt.Errorf("domain %d: anchor heap holds %d cores, counter says %d", d.id, len(d.busyList.heap), d.busy)
		}
		// The floors, recomputed from the cores: exactly the minimum over
		// the frozen foreign proxies, and over those and the busy anchors.
		frozen, busyMin := vtime.Inf, vtime.Inf
		for _, c := range d.cores {
			if c.idle != (c.busyPos < 0) {
				return fmt.Errorf("domain %d: core %d idle=%v but anchor-heap slot %d", d.id, c.ID, c.idle, c.busyPos)
			}
			if !c.idle {
				busyMin = min(busyMin, c.eff)
			}
			idleNb := int32(0)
			for j, nbID := range c.neighbors {
				nb := k.cores[nbID]
				if nb.dom != d {
					frozen = min(frozen, c.nbEff[j])
				} else if nb.idle {
					idleNb++
				}
			}
			if c.idleNb != idleNb {
				return fmt.Errorf("domain %d: core %d idle-neighbor count %d, actual %d", d.id, c.ID, c.idleNb, idleNb)
			}
		}
		if d.frozenFloor != frozen {
			return fmt.Errorf("domain %d: frozen-proxy floor %v, minimum foreign proxy %v", d.id, d.frozenFloor, frozen)
		}
		if got, want := d.effFloor(), min(frozen, busyMin); got != want {
			return fmt.Errorf("domain %d: anchor floor %v, minimum anchor %v", d.id, got, want)
		}
		// Below the root the order is what keeps the next removal's root
		// exact.
		if err := d.busyList.check(); err != nil {
			return fmt.Errorf("domain %d: anchor heap: %w", d.id, err)
		}
		// Reference fixpoint: seed anchors, relax idle cores downward
		// through local idle paths only. Frozen foreign proxies enter as
		// leaf anchors via nbEff, never as relaxation targets — mirroring
		// what lazyFix is allowed to read.
		for _, c := range d.cores {
			if c.idle {
				fix[c.ID] = vtime.Inf
			} else {
				fix[c.ID] = c.eff
			}
		}
		for changed := true; changed; {
			changed = false
			for _, c := range d.cores {
				if !c.idle {
					continue
				}
				m := vtime.Inf
				for j, nbID := range c.neighbors {
					nb := k.cores[nbID]
					var e vtime.Time
					if nb.dom != d {
						e = c.nbEff[j]
					} else {
						e = fix[nbID]
					}
					if e < m {
						m = e
					}
				}
				if e := satAdd(m, k.relayDelta); e < fix[c.ID] {
					fix[c.ID] = e
					changed = true
				}
			}
		}
		for _, c := range d.cores {
			if !c.idle || c.effStamp != d.effEpoch {
				continue
			}
			// Fresh memos come from lazyFix (anchored at local busy cores
			// and frozen proxies) or from barrier seeding (the global
			// fixpoint, which path-decomposes to the same local relaxation).
			// Either way they must match the reference value.
			if c.eff != fix[c.ID] {
				return fmt.Errorf("domain %d: idle core %d memo %v, relaxation fixpoint %v", d.id, c.ID, c.eff, fix[c.ID])
			}
		}
	}
	return nil
}

// ValidatingTracer runs Kernel.Validate every Interval trace events and
// panics on the first violation, pinpointing the event that exposed it.
// Wrap another tracer to keep recording. It is safe on the sharded engine:
// tracer callbacks run single-threaded at each barrier, after the
// effective-time refresh, exactly when the same-shard invariants Validate
// checks are supposed to hold.
type ValidatingTracer struct {
	K        *Kernel
	Interval uint64
	Next     Tracer

	count uint64
}

// Trace implements Tracer.
func (v *ValidatingTracer) Trace(ev TraceEvent) {
	if v.Next != nil {
		v.Next.Trace(ev)
	}
	v.count++
	interval := v.Interval
	if interval == 0 {
		interval = 1
	}
	if v.count%interval == 0 {
		if err := v.K.Validate(); err != nil {
			panic(fmt.Sprintf("core: invariant violation at trace event %d (%s): %v",
				ev.Seq, ev.Kind, err))
		}
	}
}
