// Package cyclelevel is the reproduction's stand-in for the hybrid
// cycle-level/system-level UNISIM-based simulator the paper validates
// against (§V "Cycle-Level Parameters").
//
// It is built from the same kernel as SiMany but configured so that events
// are processed in strict virtual-time order (a conservative scheduler,
// package drift's Lockstep) and the machine model is substantially more
// detailed:
//
//   - real split instruction/data direct-mapped L1 caches with tag arrays
//     (data kept across function boundaries, unlike SiMany's pessimistic
//     scoped model);
//   - line-granularity MSI-style coherence with per-line invalidation and
//     ownership-transfer delays (SiMany's validation mode times coherence
//     at block granularity instead);
//   - a deterministic 2-bit saturating branch predictor (SiMany assumes a
//     flat 90% success probability);
//   - constant L1 latency regardless of core speed in polymorphic
//     configurations — the documented difference that offsets the
//     cycle-level curves in Fig. 6.
//
// The combination preserves exactly the comparison the paper performs: the
// same annotated programs timed by an abstract loosely-synchronized model
// versus a strictly-ordered detailed one.
package cyclelevel

import (
	"simany/internal/cache"
	"simany/internal/core"
	"simany/internal/drift"
	"simany/internal/metrics"
	"simany/internal/timing"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// Mem is the detailed memory system: per-core direct-mapped data L1s in
// front of uniform shared banks, with full line-granularity coherence.
type Mem struct {
	// HitLat is the L1 hit latency (1 cycle, fixed).
	HitLat vtime.Time
	// BankLat is the shared-bank latency (10 cycles).
	BankLat vtime.Time
	// InvLat is charged per invalidated remote copy.
	InvLat vtime.Time

	l1s       []*cache.DirectMapped
	dir       *cache.Directory
	l1Counts  cache.Counts
	dirCounts cache.DirCounts
}

// L1Size is the per-core data-L1 capacity in bytes (16 KiB, a PPC405-class
// configuration).
const L1Size = 16 << 10

// NewMem builds the detailed memory system for n cores, with
// direct-mapped L1s. Ownership transfers are priced with the running
// kernel's network model.
func NewMem(n int) *Mem {
	m := &Mem{
		HitLat:  vtime.CyclesInt(1),
		BankLat: vtime.CyclesInt(10),
		InvLat:  vtime.CyclesInt(10),
		l1s:     make([]*cache.DirectMapped, n),
		dir:     cache.NewDirectory(cache.DefaultLineSize),
	}
	for i := range m.l1s {
		m.l1s[i] = cache.NewDirectMapped(L1Size, cache.DefaultLineSize)
	}
	return m
}

var (
	_ core.MemSystem  = (*Mem)(nil)
	_ core.MeteredMem = (*Mem)(nil)
)

// RegisterMetrics implements core.MeteredMem: the L1 hit and miss vectors
// and the directory's invalidation and transfer counters.
func (m *Mem) RegisterMetrics(reg *metrics.Registry, cores int) {
	m.l1Counts = cache.NewCounts(reg, "l1", cores)
	m.dirCounts = cache.NewDirCounts(reg)
}

// Access implements core.MemSystem by walking every cache line covered by
// the access: real tag lookups, per-line coherence actions, per-line
// invalidation of remote L1 copies.
func (m *Mem) Access(c *core.Core, base uint64, n int64, elem int, write bool, now vtime.Time) vtime.Time {
	if n <= 0 {
		return 0
	}
	if elem <= 0 {
		elem = 1
	}
	l1 := m.l1s[c.ID]
	perLine := int64(cache.DefaultLineSize / elem)
	if perLine < 1 {
		perLine = 1
	}
	var d vtime.Time
	addr := base
	for i := int64(0); i < n; i += perLine {
		cnt := perLine
		if n-i < cnt {
			cnt = n - i
		}
		line := cache.LineOf(addr, cache.DefaultLineSize)
		d += m.HitLat * vtime.Time(cnt)
		if l1.Access(addr) {
			m.l1Counts.Add(c.ID, 1, 0)
		} else {
			m.l1Counts.Add(c.ID, 0, 1)
			d += m.BankLat
		}
		var o cache.Outcome
		if write {
			o = m.dir.WriteLine(c.ID, line)
		} else {
			o = m.dir.ReadLine(c.ID, line)
		}
		m.dirCounts.Add(c.Kernel().ShardOf(c.ID), o)
		if o.Invalidations > 0 {
			d += m.InvLat * vtime.Time(o.Invalidations)
			// Invalidated copies leave the remote L1s so their next
			// access misses, as in hardware.
			for r := range m.l1s {
				if r != c.ID {
					m.l1s[r].InvalidateLine(line)
				}
			}
		}
		if o.Transfers > 0 {
			d += m.BankLat
			if o.FromCore >= 0 {
				d += c.Kernel().Network().MinLatency(o.FromCore, c.ID, cache.DefaultLineSize)
			}
		}
		addr += cache.DefaultLineSize
	}
	return d
}

// NewConfig assembles a complete cycle-level machine configuration for the
// given topology: lockstep ordering, detailed memory, 2-bit branch
// prediction. Speeds may be nil for a homogeneous machine.
func NewConfig(topo *topology.Topology, speeds []float64, seed int64) core.Config {
	return core.Config{
		Topo:   topo,
		Policy: drift.Lockstep{},
		Mem:    NewMem(topo.N()),
		Speeds: speeds,
		Predict: func(coreID int, s int64) timing.Predictor {
			return timing.NewTwoBitPredictor(0.9, s+int64(coreID)*7919)
		},
		Seed: seed,
	}
}
