// Package metrics is the simulator's one stats root: a registry of
// deterministic counters, per-core vectors and histograms, owned by the
// kernel, into which every component registers its instruments by dotted
// name at construction (docs/observability.md lists the catalogue).
//
// Counters and histograms are striped per execution shard: each shard
// worker writes only its own slot, so updates from concurrent shard rounds
// need no locks and no atomics. A vector holds one unpadded entry per
// core, written only by the worker driving that core's shard. Every
// aggregate the registry exposes (sums, bucket counts, minima, maxima) is
// commutative, so the merged snapshot is bitwise identical no matter how
// many host threads drove the shards or in which order stripes were filled.
//
// The contract mirrors the sharded engine's (DESIGN.md "Parallel
// execution"): within a round, shard s touches only stripe s and the
// entries of its own cores; between rounds the single-threaded barrier may
// touch any. Instrument creation (Registry.Counter, Registry.Vector,
// Registry.Histogram) is setup-time only — call it before the simulation
// runs, never from shard workers.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"

	"simany/internal/vtime"
)

// Unit describes how an instrument's values should be rendered.
type Unit int

const (
	// UnitCount is a plain event count.
	UnitCount Unit = iota
	// UnitTime marks values carried in vtime millicycles; snapshots render
	// them as cycle counts.
	UnitTime
)

// slot is one shard's private accumulator, padded so adjacent shards'
// hot counters do not share a cache line.
type slot struct {
	v int64
	_ [7]int64
}

// Counter is a monotonically growing sum, striped per shard.
type Counter struct {
	name string //simany:derived registry key, written by the registry as the instrument's key
	unit Unit   //simany:derived immutable instrument configuration
	vals []slot
}

// Add accumulates n into the shard's stripe. Only the worker driving
// shard (or the single-threaded barrier) may call it.
func (c *Counter) Add(shard int, n int64) { c.vals[shard].v += n }

// Inc adds one.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// AddTime accumulates a virtual-time duration.
func (c *Counter) AddTime(shard int, d vtime.Time) { c.Add(shard, ticks(d)) }

// ticks is the one place a duration leaves vtime for an accumulator.
func ticks(d vtime.Time) int64 {
	//lint:allow rawvtime accumulators keep the millicycle unit; snapshots render it back through vtime
	return int64(d)
}

// Value returns the sum over all stripes.
func (c *Counter) Value() int64 {
	var s int64
	for i := range c.vals {
		s += c.vals[i].v
	}
	return s
}

// PerShard returns a copy of the per-stripe values (the natural per-shard
// breakdown for instruments like barrier stall time).
func (c *Counter) PerShard() []int64 {
	out := make([]int64, len(c.vals))
	for i := range c.vals {
		out[i] = c.vals[i].v
	}
	return out
}

// Vector is a per-core counter: one unpadded int64 per core, indexed by
// core ID. Only the worker driving a core's shard (or the single-threaded
// barrier) writes the core's entry, so it needs no stripes and no atomics.
type Vector struct {
	name string //simany:derived registry key, written by the registry as the instrument's key
	unit Unit   //simany:derived immutable instrument configuration
	vals []int64
}

// Add accumulates n into core i's entry.
func (v *Vector) Add(i int, n int64) { v.vals[i] += n }

// Inc adds one to core i's entry.
func (v *Vector) Inc(i int) { v.vals[i]++ }

// AddTime accumulates a virtual-time duration into core i's entry.
func (v *Vector) AddTime(i int, d vtime.Time) { v.vals[i] += ticks(d) }

// At returns core i's entry.
func (v *Vector) At(i int) int64 { return v.vals[i] }

// Sum returns the total over all cores.
func (v *Vector) Sum() int64 {
	var s int64
	for _, x := range v.vals {
		s += x
	}
	return s
}

// Max returns the largest entry and the lowest core index holding it.
func (v *Vector) Max() (max int64, at int) {
	for i, x := range v.vals {
		if i == 0 || x > max {
			max, at = x, i
		}
	}
	return max, at
}

// histStripe is one shard's private histogram state.
type histStripe struct {
	counts     []int64
	count, sum int64
	min, max   int64
	_          [4]int64 // keep adjacent stripes off one cache line
}

// Histogram is a fixed-bucket distribution, striped per shard. Bounds are
// inclusive upper bucket edges in ascending order; values above the last
// bound land in an implicit overflow bucket.
type Histogram struct {
	name   string  //simany:derived registry key, written by the registry as the instrument's key
	unit   Unit    //simany:derived immutable instrument configuration
	bounds []int64 //simany:derived immutable bucket edges fixed at construction
	vals   []histStripe
}

// Observe records v into the shard's stripe. Only the worker driving
// shard (or the single-threaded barrier) may call it.
func (h *Histogram) Observe(shard int, v int64) {
	s := &h.vals[shard]
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	s.counts[i]++
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

// ObserveTime records a virtual-time duration.
func (h *Histogram) ObserveTime(shard int, d vtime.Time) { h.Observe(shard, ticks(d)) }

// DefaultTimeBounds returns the standard bucket edges for virtual-time
// duration histograms: a coarse exponential ladder from sub-cycle to a
// million cycles, in millicycles.
func DefaultTimeBounds() []int64 {
	cycles := []int64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500,
		1_000, 2_000, 5_000, 10_000, 100_000, 1_000_000}
	out := make([]int64, len(cycles))
	for i, c := range cycles {
		out[i] = ticks(vtime.CyclesInt(c))
	}
	return out
}

// DefaultCountBounds returns bucket edges for small-integer distributions
// (queue depths, steps per round).
func DefaultCountBounds() []int64 {
	return []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
}

// Registry holds named instruments. Creation is setup-time only; updates
// follow the per-shard discipline described in the package comment.
type Registry struct {
	shards   int //simany:derived stripe-count configuration fixed at construction
	counters map[string]*Counter
	vectors  map[string]*Vector
	//simany:derived observations, not state: a replay reproduces them and a checkpoint does not compare them
	hists map[string]*Histogram
}

// New creates an empty registry with a single stripe (the sequential
// engine). The kernel widens it via SetShards when it builds a sharded
// machine.
func New() *Registry {
	return &Registry{
		shards:   1,
		counters: make(map[string]*Counter),
		vectors:  make(map[string]*Vector),
		hists:    make(map[string]*Histogram),
	}
}

// SetShards grows every instrument to at least n stripes. Existing stripe
// contents are preserved; SetShards never shrinks (extra stripes simply
// stay zero). The kernel calls it once, before the run.
func (r *Registry) SetShards(n int) {
	if n <= r.shards {
		return
	}
	r.shards = n
	// Widening each instrument is order-independent, but iterate in sorted
	// name order anyway so the package stays maporder-clean by inspection.
	for _, name := range sortedKeys(r.counters) {
		c := r.counters[name]
		for len(c.vals) < n {
			c.vals = append(c.vals, slot{})
		}
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		for len(h.vals) < n {
			h.vals = append(h.vals, newHistStripe(len(h.bounds)))
		}
	}
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// iteration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NumShards returns the stripe count.
func (r *Registry) NumShards() int { return r.shards }

func newHistStripe(buckets int) histStripe {
	return histStripe{
		counts: make([]int64, buckets+1),
		min:    math.MaxInt64,
		max:    math.MinInt64,
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Setup-time only.
func (r *Registry) Counter(name string, unit Unit) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, unit: unit, vals: make([]slot, r.shards)}
	r.counters[name] = c
	return c
}

// Vector returns the per-core vector with the given name, creating it with
// n zero entries on first use. Setup-time only.
func (r *Registry) Vector(name string, unit Unit, n int) *Vector {
	if v, ok := r.vectors[name]; ok {
		return v
	}
	v := &Vector{name: name, unit: unit, vals: make([]int64, n)}
	r.vectors[name] = v
	return v
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds on first use. Setup-time only.
func (r *Registry) Histogram(name string, unit Unit, bounds []int64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	h := &Histogram{name: name, unit: unit, bounds: b}
	for i := 0; i < r.shards; i++ {
		h.vals = append(h.vals, newHistStripe(len(b)))
	}
	r.hists[name] = h
	return h
}

// CounterSnap is one counter's merged state.
type CounterSnap struct {
	Name     string
	Unit     Unit
	Value    int64
	PerShard []int64
}

// VectorSnap is one vector's merged state: the total over all cores and
// the busiest core (the lowest index among equals).
type VectorSnap struct {
	Name  string
	Unit  Unit
	Total int64
	Max   int64
	MaxAt int
}

// Bucket is one merged histogram bucket; UpperBound == math.MaxInt64 marks
// the overflow bucket.
type Bucket struct {
	UpperBound int64
	Count      int64
}

// HistSnap is one histogram's merged state. Min/Max are only meaningful
// when Count > 0.
type HistSnap struct {
	Name     string
	Unit     Unit
	Count    int64
	Sum      int64
	Min, Max int64
	Buckets  []Bucket
}

// Snapshot is a deterministic point-in-time merge of every instrument,
// sorted by name.
type Snapshot struct {
	Counters   []CounterSnap
	Vectors    []VectorSnap
	Histograms []HistSnap
}

// Snapshot merges all stripes. Call it only from single-threaded context
// (after the run, or at a barrier): every merged quantity is commutative,
// so the result depends only on the observations, never on stripe order.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, name := range sortedKeys(r.counters) {
		c := r.counters[name]
		s.Counters = append(s.Counters, CounterSnap{
			Name: c.name, Unit: c.unit, Value: c.Value(), PerShard: c.PerShard(),
		})
	}
	for _, name := range sortedKeys(r.vectors) {
		v := r.vectors[name]
		max, at := v.Max()
		s.Vectors = append(s.Vectors, VectorSnap{
			Name: v.name, Unit: v.unit, Total: v.Sum(), Max: max, MaxAt: at,
		})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		hs := HistSnap{Name: h.name, Unit: h.unit, Min: math.MaxInt64, Max: math.MinInt64}
		hs.Buckets = make([]Bucket, len(h.bounds)+1)
		for i, b := range h.bounds {
			hs.Buckets[i].UpperBound = b
		}
		hs.Buckets[len(h.bounds)].UpperBound = math.MaxInt64
		for i := range h.vals {
			st := &h.vals[i]
			hs.Count += st.count
			hs.Sum += st.sum
			if st.min < hs.Min {
				hs.Min = st.min
			}
			if st.max > hs.Max {
				hs.Max = st.max
			}
			for j, n := range st.counts {
				hs.Buckets[j].Count += n
			}
		}
		if hs.Count == 0 {
			hs.Min, hs.Max = 0, 0
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// WriteText snapshots the registry and dumps it as plain text. Call only
// from single-threaded context, like Snapshot.
func (r *Registry) WriteText(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// fmtVal renders a value in its unit.
func fmtVal(v int64, u Unit) string {
	if u == UnitTime {
		return vtime.Time(v).String()
	}
	return fmt.Sprintf("%d", v)
}

// WriteText dumps the snapshot as aligned plain text: one line per
// counter, one per vector (its total and busiest core), then each
// histogram with its non-empty buckets.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-28s %14s", c.Name, fmtVal(c.Value, c.Unit)); err != nil {
			return err
		}
		if len(c.PerShard) > 1 {
			if _, err := fmt.Fprint(w, "  per-shard ["); err != nil {
				return err
			}
			for i, v := range c.PerShard {
				sep := " "
				if i == 0 {
					sep = ""
				}
				if _, err := fmt.Fprintf(w, "%s%s", sep, fmtVal(v, c.Unit)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprint(w, "]"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, v := range s.Vectors {
		if _, err := fmt.Fprintf(w, "%-28s %14s  max %s (core %d)\n",
			v.Name, fmtVal(v.Total, v.Unit), fmtVal(v.Max, v.Unit), v.MaxAt); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		mean := "-"
		if h.Count > 0 {
			mean = fmtVal(h.Sum/h.Count, h.Unit)
		}
		if _, err := fmt.Fprintf(w, "%-28s count=%d min=%s mean=%s max=%s\n",
			h.Name, h.Count, fmtVal(h.Min, h.Unit), mean, fmtVal(h.Max, h.Unit)); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			edge := "+inf"
			if b.UpperBound != math.MaxInt64 {
				edge = fmtVal(b.UpperBound, h.Unit)
			}
			if _, err := fmt.Fprintf(w, "  le %-12s %d\n", edge, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
