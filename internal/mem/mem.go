// Package mem implements the simulator's memory organizations (§III
// "Architecture Variability", §V "Architecture Configuration"):
//
//   - Shared: every core accesses uniform shared memory banks with a common
//     low latency (10 cycles) behind its private pessimistic L1; cache
//     coherence delays can optionally be timed through a directory (they
//     are ignored in the paper's default shared-memory architecture and
//     enabled for the cycle-level validation).
//   - Distributed: no hardware-coherent shared memory; each core has a
//     private L2 (10-cycle), and shared data live in run-time-managed
//     cells moved between cores by the task runtime (package rt).
//
// The package also provides the bump Allocator that gives benchmark data
// structures their simulated addresses.
package mem

import (
	"sync"

	"simany/internal/cache"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/vtime"
)

// Allocator hands out simulated addresses. Address 0 is never returned.
// It is safe for concurrent use; allocations made on behalf of a specific
// core should go through AllocCore so the returned addresses stay
// deterministic under the sharded execution engine.
type Allocator struct {
	mu   sync.Mutex
	next uint64

	arenas map[int]*uint64 // per-core bump pointers (AllocCore)
}

// arenaStride separates per-core address arenas; no simulated workload
// comes near 2^40 bytes per core.
const arenaStride = uint64(1) << 40

// NewAllocator creates an allocator.
func NewAllocator() *Allocator {
	return &Allocator{next: cache.DefaultLineSize}
}

// Alloc reserves size bytes aligned to a cache line and returns the base
// address. Concurrent callers receive disjoint ranges, but the assignment
// order (and thus the addresses) depends on host scheduling — use
// AllocCore from simulated task code.
func (a *Allocator) Alloc(size int64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if size <= 0 {
		size = 1
	}
	base := a.next
	lines := (uint64(size) + cache.DefaultLineSize - 1) / cache.DefaultLineSize
	a.next += lines * cache.DefaultLineSize
	return base
}

// AllocCore reserves size bytes in core's private address arena. Each
// core's allocation sequence is deterministic regardless of how other
// cores' allocations interleave, which keeps cache behaviour (and thus
// timing) reproducible under parallel execution.
func (a *Allocator) AllocCore(core int, size int64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if size <= 0 {
		size = 1
	}
	if a.arenas == nil {
		a.arenas = make(map[int]*uint64)
	}
	p, ok := a.arenas[core]
	if !ok {
		base := arenaStride * uint64(core+1)
		p = &base
		a.arenas[core] = p
	}
	base := *p
	lines := (uint64(size) + cache.DefaultLineSize - 1) / cache.DefaultLineSize
	*p += lines * cache.DefaultLineSize
	return base
}

// Shared is the shared-memory system of §V: private scoped L1 with 1-cycle
// latency, uniform 10-cycle shared banks, optional coherence timing.
type Shared struct {
	// HitLat is the L1 hit latency (1 cycle).
	HitLat vtime.Time
	// BankLat is the uniform shared-bank latency (10 cycles).
	BankLat vtime.Time
	// Dir, when non-nil, times cache-coherence effects (invalidations and
	// dirty transfers); nil reproduces the paper's optimistic
	// shared-memory architecture where coherence delays are not taken
	// into account.
	Dir *cache.Directory
	// InvLat is the latency charged per remote invalidation.
	InvLat vtime.Time
	// ScaleL1WithSpeed mimics SiMany's polymorphic implementation where
	// L1 speed is proportional to core speed; the UNISIM reference keeps
	// L1 speed constant (§VI explains the resulting offset in Fig. 6).
	ScaleL1WithSpeed bool

	l1  cache.Counts
	dir cache.DirCounts // with Dir only
}

// NewShared returns the paper's default shared-memory configuration.
func NewShared() *Shared {
	return &Shared{
		HitLat:           vtime.CyclesInt(1),
		BankLat:          vtime.CyclesInt(10),
		InvLat:           vtime.CyclesInt(10),
		ScaleL1WithSpeed: true,
	}
}

// WithCoherence enables coherence-effect timing (used for the cycle-level
// validation runs) and returns s. Dirty transfers are priced with the
// uncontended distance between owner and requester in the running
// kernel's network model.
func (s *Shared) WithCoherence() *Shared {
	s.Dir = cache.NewDirectory(cache.DefaultLineSize)
	return s
}

var (
	_ core.MemSystem  = (*Shared)(nil)
	_ core.MeteredMem = (*Shared)(nil)
)

// ShardSafe implements core.ShardSafeMem: without a coherence directory,
// Access only touches the accessing core's private L1. The directory is
// global mutable state, so coherence-mode runs stay on the sequential
// engine.
func (s *Shared) ShardSafe() bool { return s.Dir == nil }

// RegisterMetrics implements core.MeteredMem: the L1 hit and miss vectors,
// and with a directory its invalidation and transfer counters.
func (s *Shared) RegisterMetrics(reg *metrics.Registry, cores int) {
	s.l1 = cache.NewCounts(reg, "l1", cores)
	if s.Dir != nil {
		s.dir = cache.NewDirCounts(reg)
	}
}

// Access implements core.MemSystem.
func (s *Shared) Access(c *core.Core, base uint64, n int64, elem int, write bool, now vtime.Time) vtime.Time {
	hits, misses := c.L1().Range(base, n, elem)
	s.l1.Add(c.ID, hits, misses)
	hitLat := s.HitLat
	if s.ScaleL1WithSpeed && c.Speed != 1.0 {
		hitLat = hitLat.Scale(1.0 / c.Speed)
	}
	d := hitLat*vtime.Time(hits) + (hitLat+s.BankLat)*vtime.Time(misses)
	if s.Dir != nil {
		// Block-granularity coherence timing: this is SiMany's abstract
		// validation-mode model; the cycle-level simulator walks lines
		// individually instead.
		var o cache.Outcome
		if write {
			o = s.Dir.RangeWrite(c.ID, base, n, elem)
		} else {
			o = s.Dir.RangeRead(c.ID, base, n, elem)
		}
		s.dir.Add(c.Kernel().ShardOf(c.ID), o)
		d += s.InvLat * vtime.Time(o.Invalidations)
		if o.Transfers > 0 {
			d += s.BankLat
			if o.FromCore >= 0 {
				d += c.Kernel().Network().MinLatency(o.FromCore, c.ID, cache.DefaultLineSize)
			}
		}
	}
	return d
}

// Distributed is the local memory system of the distributed-memory
// architecture: a scoped L1 in front of the core's private L2 (10-cycle);
// L2 misses go to the core's local memory. Remote (cell) traffic is handled
// by the task runtime, not here.
type Distributed struct {
	// HitLat is the L1 hit latency (1 cycle).
	HitLat vtime.Time
	// L2Lat is the private L2 latency (10 cycles, §V).
	L2Lat vtime.Time
	// LocalMemLat is the latency of the core-local memory behind the L2.
	LocalMemLat vtime.Time
	// ScaleL1WithSpeed scales L1 latency with core speed as in Shared.
	ScaleL1WithSpeed bool

	l1, l2 cache.Counts
}

// NewDistributed returns the paper's distributed-memory configuration.
func NewDistributed() *Distributed {
	return &Distributed{
		HitLat:           vtime.CyclesInt(1),
		L2Lat:            vtime.CyclesInt(10),
		LocalMemLat:      vtime.CyclesInt(30),
		ScaleL1WithSpeed: true,
	}
}

var (
	_ core.MemSystem  = (*Distributed)(nil)
	_ core.MeteredMem = (*Distributed)(nil)
)

// ShardSafe implements core.ShardSafeMem: accesses only touch the
// accessing core's private L1 and L2.
func (m *Distributed) ShardSafe() bool { return true }

// RegisterMetrics implements core.MeteredMem: the L1 and L2 hit and miss
// vectors.
func (m *Distributed) RegisterMetrics(reg *metrics.Registry, cores int) {
	m.l1 = cache.NewCounts(reg, "l1", cores)
	m.l2 = cache.NewCounts(reg, "l2", cores)
}

// Access implements core.MemSystem.
func (m *Distributed) Access(c *core.Core, base uint64, n int64, elem int, write bool, now vtime.Time) vtime.Time {
	hits, misses := c.L1().Range(base, n, elem)
	m.l1.Add(c.ID, hits, misses)
	hitLat := m.HitLat
	if m.ScaleL1WithSpeed && c.Speed != 1.0 {
		hitLat = hitLat.Scale(1.0 / c.Speed)
	}
	d := hitLat * vtime.Time(hits)
	if misses == 0 {
		return d
	}
	// L1 misses go to the private L2 at line granularity, charged as the
	// first `misses` lines of the range (see cache.L2.AccessRange).
	l2Hits, l2Misses := c.L2().AccessRange(base, misses)
	m.l2.Add(c.ID, l2Hits, l2Misses)
	d += (hitLat + m.L2Lat) * vtime.Time(l2Hits)
	d += (hitLat + m.L2Lat + m.LocalMemLat) * vtime.Time(l2Misses)
	return d
}
