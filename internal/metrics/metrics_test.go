package metrics

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"simany/internal/snap"
	"simany/internal/vtime"
)

func TestCounterStripes(t *testing.T) {
	r := New()
	c := r.Counter("x", UnitCount)
	c.Add(0, 5)
	r.SetShards(4)
	c.Inc(3)
	c.Add(1, 2)
	if got := c.Value(); got != 8 {
		t.Errorf("Value = %d, want 8", got)
	}
	if got := c.PerShard(); !reflect.DeepEqual(got, []int64{5, 2, 0, 1}) {
		t.Errorf("PerShard = %v", got)
	}
	// Get-or-create returns the same instrument.
	if r.Counter("x", UnitCount) != c {
		t.Error("Counter did not return the existing instrument")
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := New()
	r.SetShards(2)
	h := r.Histogram("h", UnitCount, []int64{10, 100})
	h.Observe(0, 5)    // bucket le 10
	h.Observe(1, 10)   // inclusive upper edge: le 10
	h.Observe(0, 50)   // le 100
	h.Observe(1, 1000) // overflow
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	hs := s.Histograms[0]
	if hs.Count != 4 || hs.Sum != 1065 || hs.Min != 5 || hs.Max != 1000 {
		t.Errorf("stats = %+v", hs)
	}
	counts := []int64{hs.Buckets[0].Count, hs.Buckets[1].Count, hs.Buckets[2].Count}
	if !reflect.DeepEqual(counts, []int64{2, 1, 1}) {
		t.Errorf("bucket counts = %v", counts)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := New()
	r.Histogram("empty", UnitCount, DefaultCountBounds())
	hs := r.Snapshot().Histograms[0]
	if hs.Count != 0 || hs.Min != 0 || hs.Max != 0 {
		t.Errorf("empty snapshot = %+v", hs)
	}
}

// TestSnapshotStripeOrderIndependent: the merged snapshot must not depend
// on which stripe received which observation — the property that makes
// per-shard recording deterministic at every worker count.
func TestSnapshotStripeOrderIndependent(t *testing.T) {
	build := func(perm []int) Snapshot {
		r := New()
		r.SetShards(4)
		c := r.Counter("c", UnitTime)
		h := r.Histogram("h", UnitTime, DefaultTimeBounds())
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			shard := perm[i%4]
			d := vtime.Cycles(float64(rng.Intn(5000)))
			c.AddTime(shard, d)
			h.ObserveTime(shard, d)
		}
		return r.Snapshot()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 0, 1, 2})
	// Counter totals and histogram merges must agree; per-shard breakdowns
	// legitimately differ with the permutation.
	if a.Counters[0].Value != b.Counters[0].Value {
		t.Errorf("counter merge differs: %d vs %d", a.Counters[0].Value, b.Counters[0].Value)
	}
	if !reflect.DeepEqual(a.Histograms, b.Histograms) {
		t.Errorf("histogram merge differs:\n  %+v\n  %+v", a.Histograms, b.Histograms)
	}
}

func TestSetShardsGrowOnly(t *testing.T) {
	r := New()
	c := r.Counter("c", UnitCount)
	r.SetShards(4)
	r.SetShards(2) // must not shrink
	c.Add(3, 1)
	if r.NumShards() != 4 {
		t.Errorf("NumShards = %d, want 4", r.NumShards())
	}
}

func TestWriteText(t *testing.T) {
	r := New()
	r.SetShards(2)
	r.Counter("net.msgs", UnitCount).Add(1, 42)
	r.Counter("stall.time", UnitTime).AddTime(0, vtime.CyclesInt(7))
	h := r.Histogram("lat", UnitTime, DefaultTimeBounds())
	h.ObserveTime(0, vtime.CyclesInt(3))
	r.Vector("core.starts", UnitCount, 3).Add(2, 9)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"net.msgs", "42", "stall.time", "per-shard", "lat", "count=1", "max 9 (core 2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVectorAndEncodeState: a vector's total and busiest core (the lowest
// index among equals), and the encoded state — counters and vectors in
// name order whatever the creation order, histograms and omitted counters
// left out.
func TestVectorAndEncodeState(t *testing.T) {
	build := func(reverse bool) ([]byte, *Vector, *Counter) {
		r := New()
		var v *Vector
		var c *Counter
		if reverse {
			c = r.Counter("b.skip", UnitCount)
			v = r.Vector("a.vec", UnitTime, 4)
		} else {
			v = r.Vector("a.vec", UnitTime, 4)
			c = r.Counter("b.skip", UnitCount)
		}
		r.Counter("c.kept", UnitCount).Inc(0)
		r.Histogram("d.hist", UnitCount, DefaultCountBounds()).Observe(0, 3)
		v.Inc(1)
		v.AddTime(3, vtime.CyclesInt(2))
		v.Add(1, 1999)
		c.Add(0, 5)
		enc := snap.NewEncoder()
		r.EncodeState(enc, c)
		return enc.Bytes(), v, c
	}
	state, v, _ := build(false)
	if sum := v.Sum(); sum != 4000 {
		t.Errorf("Sum = %d, want 4000", sum)
	}
	if max, at := v.Max(); max != 2000 || at != 1 {
		t.Errorf("Max = %d at %d, want 2000 at the lower of cores 1 and 3", max, at)
	}
	reversed, _, _ := build(true)
	if !bytes.Equal(state, reversed) {
		t.Error("encoded state depends on creation order")
	}
	if bytes.Contains(state, []byte("b.skip")) || bytes.Contains(state, []byte("d.hist")) {
		t.Error("encoded state holds an omitted counter or a histogram")
	}
	if !bytes.Contains(state, []byte("a.vec")) || !bytes.Contains(state, []byte("c.kept")) {
		t.Error("encoded state misses a vector or a counter")
	}
}
