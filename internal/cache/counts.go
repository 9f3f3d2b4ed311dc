package cache

import "simany/internal/metrics"

// Counts is one cache level's hit and miss counters in a registry: one
// vector entry per core, written by the memory system that drives the
// level on the accessing core's behalf.
type Counts struct{ hit, miss *metrics.Vector }

// NewCounts registers cache.<level>.hit and cache.<level>.miss. Setup time
// only.
func NewCounts(reg *metrics.Registry, level string, cores int) Counts {
	return Counts{
		hit:  reg.Vector("cache."+level+".hit", metrics.UnitCount, cores),
		miss: reg.Vector("cache."+level+".miss", metrics.UnitCount, cores),
	}
}

// Add counts one access's hits and misses for core c.
func (k Counts) Add(c int, hits, misses int64) {
	k.hit.Add(c, hits)
	k.miss.Add(c, misses)
}

// DirCounts is a coherence directory's totals in a registry, striped by
// shard like every counter.
type DirCounts struct{ invalidations, transfers *metrics.Counter }

// NewDirCounts registers cache.dir.invalidations and cache.dir.transfers.
// Setup time only.
func NewDirCounts(reg *metrics.Registry) DirCounts {
	return DirCounts{
		invalidations: reg.Counter("cache.dir.invalidations", metrics.UnitCount),
		transfers:     reg.Counter("cache.dir.transfers", metrics.UnitCount),
	}
}

// Add counts an access's coherence outcome on the given shard's stripe.
func (k DirCounts) Add(shard int, o Outcome) {
	k.invalidations.Add(shard, int64(o.Invalidations))
	k.transfers.Add(shard, int64(o.Transfers))
}
