package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScopedBasics(t *testing.T) {
	s := NewScoped(32)
	s.Enter()
	if s.Access(0) {
		t.Error("first access should miss")
	}
	if !s.Access(8) {
		t.Error("same-line access should hit")
	}
	if s.Access(32) {
		t.Error("next line should miss")
	}
	s.Leave()
	s.Enter()
	if s.Access(0) {
		t.Error("data must not survive function boundaries")
	}
}

func TestScopedRange(t *testing.T) {
	s := NewScoped(32)
	s.Enter()
	// 16 8-byte elements at base 0 = 128 bytes = 4 lines.
	hits, misses := s.Range(0, 16, 8)
	if misses != 4 || hits != 12 {
		t.Errorf("range = %d hits / %d misses, want 12/4", hits, misses)
	}
	// Re-reading the same range inside the scope: all hits.
	hits, misses = s.Range(0, 16, 8)
	if misses != 0 || hits != 16 {
		t.Errorf("re-range = %d/%d, want 16/0", hits, misses)
	}
	s.Leave()
	s.Enter()
	_, misses = s.Range(0, 16, 8)
	if misses != 4 {
		t.Errorf("post-scope range misses = %d, want 4", misses)
	}
}

func TestScopedRangeEdge(t *testing.T) {
	s := NewScoped(32)
	if h, m := s.Range(0, 0, 8); h != 0 || m != 0 {
		t.Error("empty range should be free")
	}
	// One 1-byte element: one new line, so one miss capped at n.
	if h, m := s.Range(100, 1, 1); h != 0 || m != 1 {
		t.Errorf("single access = %d/%d", h, m)
	}
	// Large elements spanning many lines: misses capped at n.
	s2 := NewScoped(32)
	if h, m := s2.Range(0, 2, 1024); h+m != 2 || m != 2 {
		t.Errorf("big-elem range = %d/%d", h, m)
	}
}

func TestScopedLeaveUnderflow(t *testing.T) {
	s := NewScoped(32)
	s.Leave() // must not panic
	s.Enter()
	s.Access(0)
	s.Leave()
	s.Leave()
}

func TestDirectMappedConflict(t *testing.T) {
	// 4-line cache, 32-byte lines: addresses 0 and 128 conflict.
	d := NewDirectMapped(128, 32)
	if d.Access(0) {
		t.Error("cold miss expected")
	}
	if !d.Access(4) {
		t.Error("same line should hit")
	}
	if d.Access(128) {
		t.Error("conflicting line should miss")
	}
	if d.Access(0) {
		t.Error("evicted line should miss again")
	}
	d.Flush()
	if d.Access(4) {
		t.Error("flushed cache should miss")
	}
}

func TestDirectMappedRange(t *testing.T) {
	d := NewDirectMapped(1024, 32)
	hits, misses := d.Range(0, 32, 8) // 256 bytes = 8 lines
	if misses != 8 || hits != 24 {
		t.Errorf("range = %d/%d, want 24/8", hits, misses)
	}
	hits, misses = d.Range(0, 32, 8)
	if misses != 0 || hits != 32 {
		t.Errorf("warm range = %d/%d, want 32/0", hits, misses)
	}
}

func TestDirectMappedInvalidate(t *testing.T) {
	d := NewDirectMapped(1024, 32)
	d.Access(64)
	d.InvalidateLine(LineOf(64, 32))
	if d.Access(64) {
		t.Error("invalidated line should miss")
	}
	// Invalidating an absent line is a no-op.
	d.InvalidateLine(LineOf(9999, 32))
}

func TestDirectMappedTiny(t *testing.T) {
	d := NewDirectMapped(8, 32) // smaller than a line: still 1 line
	if d.Access(0) {
		t.Error("cold miss expected")
	}
	if !d.Access(16) {
		t.Error("same single line should hit")
	}
}

func TestL2(t *testing.T) {
	l := NewL2(32)
	if l.Access(0) {
		t.Error("cold L2 access should miss")
	}
	if !l.Access(8) {
		t.Error("warm L2 access should hit")
	}
	l.Install(1024, 100) // lines 32..35
	if !l.Contains(1024) || !l.Contains(1123) {
		t.Error("installed range missing")
	}
	if l.Contains(1152) {
		t.Error("line past range present")
	}
	l.Evict(1024, 100)
	if l.Contains(1024) {
		t.Error("evicted line still present")
	}
	l.Install(0, 0) // no-op
	l.Evict(0, 0)   // no-op
}

func TestDirectoryReadWrite(t *testing.T) {
	d := NewDirectory(32)
	var inv, tr int
	tally := func(o Outcome) Outcome {
		inv += o.Invalidations
		tr += o.Transfers
		return o
	}
	// Cold read: no coherence action.
	o := tally(d.Read(0, 100))
	if o.Transfers != 0 || o.Invalidations != 0 {
		t.Errorf("cold read outcome = %+v", o)
	}
	// Second reader: still silent.
	o = tally(d.Read(1, 100))
	if o.Transfers != 0 || o.Invalidations != 0 {
		t.Errorf("shared read outcome = %+v", o)
	}
	// Writer must invalidate both sharers except itself.
	o = tally(d.Write(0, 100))
	if o.Invalidations != 1 {
		t.Errorf("write invalidations = %d, want 1", o.Invalidations)
	}
	// Remote read of dirty line: ownership transfer.
	o = tally(d.Read(2, 100))
	if o.Transfers != 1 || o.FromCore != 0 {
		t.Errorf("dirty read outcome = %+v", o)
	}
	// Write by third core: invalidate remaining sharers (0 and 2).
	o = tally(d.Write(3, 100))
	if o.Invalidations != 2 {
		t.Errorf("write invalidations = %d, want 2", o.Invalidations)
	}
	if inv != 3 || tr != 1 {
		t.Errorf("totals = %d inv / %d transfers", inv, tr)
	}
}

func TestDirectoryExclusiveSilent(t *testing.T) {
	d := NewDirectory(32)
	d.Write(5, 200)
	// Repeated accesses by the owner are silent.
	if o := d.Write(5, 200); o.Transfers != 0 || o.Invalidations != 0 {
		t.Errorf("owner rewrite = %+v", o)
	}
	if o := d.Read(5, 200); o.Transfers != 0 || o.Invalidations != 0 {
		t.Errorf("owner reread = %+v", o)
	}
}

func TestDirectoryWriteAfterOwnership(t *testing.T) {
	d := NewDirectory(32)
	d.Write(0, 64)
	o := d.Write(1, 64)
	if o.Transfers != 1 || o.FromCore != 0 || o.Invalidations != 1 {
		t.Errorf("ownership steal = %+v", o)
	}
}

func TestDirectoryRange(t *testing.T) {
	d := NewDirectory(32)
	// Core 0 reads 8 lines; core 1 writes them all: 8 invalidations.
	d.RangeRead(0, 0, 64, 4) // 256 bytes = 8 lines
	o := d.RangeWrite(1, 0, 64, 4)
	if o.Invalidations != 8 {
		t.Errorf("range write invalidations = %d, want 8", o.Invalidations)
	}
	// Core 2 range-reads dirty lines: each of the 8 transfers.
	o = d.RangeRead(2, 0, 64, 4)
	if o.Transfers != 8 || o.FromCore != 1 {
		t.Errorf("range read of dirty lines = %+v, want 8 transfers from core 1", o)
	}
	if o := d.RangeRead(2, 0, 0, 4); o.Transfers != 0 || o.Invalidations != 0 {
		t.Error("empty range should be silent")
	}
}

// Property: hits+misses == accesses for random access streams, and a
// repeated address inside one scope always hits.
func TestScopedProperties(t *testing.T) {
	f := func(addrs []uint16) bool {
		s := NewScoped(32)
		s.Enter()
		var h, m int64
		for _, a := range addrs {
			if s.Access(uint64(a)) {
				h++
			} else {
				m++
			}
		}
		if h+m != int64(len(addrs)) {
			return false
		}
		for _, a := range addrs {
			if !s.Access(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the directory never reports more invalidations than there are
// cores that have touched the line.
func TestDirectoryInvalidationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDirectory(32)
	const cores = 8
	touched := make(map[uint64]map[int]bool)
	for i := 0; i < 2000; i++ {
		c := rng.Intn(cores)
		addr := uint64(rng.Intn(64)) * 32
		line := LineOf(addr, 32)
		if touched[line] == nil {
			touched[line] = make(map[int]bool)
		}
		var o Outcome
		if rng.Intn(2) == 0 {
			o = d.Read(c, addr)
		} else {
			o = d.Write(c, addr)
		}
		if o.Invalidations > len(touched[line]) {
			t.Fatalf("%d invalidations with only %d tourists", o.Invalidations, len(touched[line]))
		}
		touched[line][c] = true
	}
}
