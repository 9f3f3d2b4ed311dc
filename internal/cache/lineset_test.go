package cache

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

const maxLine = math.MaxUint64

// refSet is the representation the span set replaced, kept as the oracle.
type refSet map[uint64]struct{}

func (r refSet) add(first, last uint64) (newLines int64) {
	for l := first; ; l++ {
		if _, ok := r[l]; !ok {
			r[l] = struct{}{}
			newLines++
		}
		if l == last {
			return newLines
		}
	}
}

func (r refSet) remove(first, last uint64) {
	for l := range r { // by member, so that a range up to MaxUint64 is removable
		if l >= first && l <= last {
			delete(r, l)
		}
	}
}

// spans returns the canonical span list of r.
func (r refSet) spans() []span {
	lines := make([]uint64, 0, len(r))
	for l := range r {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	var out []span
	for _, l := range lines {
		if n := len(out); n > 0 && out[n-1].hi+1 == l {
			out[n-1].hi = l
		} else {
			out = append(out, span{l, l})
		}
	}
	return out
}

// checkAgainst fails unless s is canonical (sorted, disjoint, non-adjacent,
// lo <= hi) and holds exactly the lines of ref.
func checkAgainst(t testing.TB, s *lineSet, ref refSet) {
	t.Helper()
	for i, sp := range s.spans {
		if sp.lo > sp.hi {
			t.Fatalf("span %d inverted: %v", i, s.spans)
		}
		if i > 0 && (s.spans[i-1].hi == maxLine || s.spans[i-1].hi+1 >= sp.lo) {
			t.Fatalf("spans %d,%d overlap or touch: %v", i-1, i, s.spans)
		}
	}
	if want := ref.spans(); !slices.Equal(s.spans, want) {
		t.Fatalf("spans = %v, want %v", s.spans, want)
	}
}

func TestLineSetCases(t *testing.T) {
	type op struct {
		remove      bool
		first, last uint64
		newLines    int64 // adds only
	}
	add := func(f, l uint64, n int64) op { return op{false, f, l, n} }
	rem := func(f, l uint64) op { return op{true, f, l, 0} }
	cases := []struct {
		name string
		ops  []op
		want []span
	}{
		{"insert keeps order", []op{add(10, 12, 3), add(1, 2, 2), add(5, 6, 2)}, []span{{1, 2}, {5, 6}, {10, 12}}},
		{"re-add is free", []op{add(4, 9, 6), add(5, 7, 0), add(4, 9, 0)}, []span{{4, 9}}},
		{"adjacent merge right", []op{add(4, 5, 2), add(6, 8, 3)}, []span{{4, 8}}},
		{"adjacent merge left", []op{add(6, 8, 3), add(4, 5, 2)}, []span{{4, 8}}},
		{"fill the gap", []op{add(1, 3, 3), add(5, 7, 3), add(4, 4, 1)}, []span{{1, 7}}},
		{"add spanning several", []op{add(2, 3, 2), add(6, 7, 2), add(10, 11, 2), add(14, 15, 2), add(3, 10, 4)}, []span{{2, 11}, {14, 15}}},
		{"partial overlap", []op{add(10, 20, 11), add(15, 25, 5), add(5, 12, 5)}, []span{{5, 25}}},
		{"lo = 0", []op{add(1, 2, 2), add(0, 0, 1), rem(0, 1)}, []span{{2, 2}}},
		{"hi = max", []op{add(maxLine-3, maxLine-2, 2), add(maxLine, maxLine, 1), add(maxLine-1, maxLine, 1), rem(maxLine, maxLine)}, []span{{maxLine - 3, maxLine - 1}}},
		{"both ends", []op{add(0, 1, 2), add(maxLine-1, maxLine, 2), rem(1, maxLine-1)}, []span{{0, 0}, {maxLine, maxLine}}},
		{"split by remove", []op{add(1, 9, 9), rem(4, 6)}, []span{{1, 3}, {7, 9}}},
		{"split then refill", []op{add(1, 9, 9), rem(5, 5), add(5, 5, 1)}, []span{{1, 9}}},
		{"remove trims left and right", []op{add(1, 5, 5), add(8, 12, 5), rem(4, 9)}, []span{{1, 3}, {10, 12}}},
		{"remove spanning several", []op{add(1, 2, 2), add(4, 5, 2), add(7, 8, 2), add(10, 11, 2), rem(2, 10)}, []span{{1, 1}, {11, 11}}},
		{"remove whole spans", []op{add(1, 2, 2), add(4, 5, 2), add(7, 8, 2), rem(3, 6)}, []span{{1, 2}, {7, 8}}},
		{"remove absent", []op{add(4, 5, 2), rem(0, 3), rem(6, 9), rem(100, maxLine)}, []span{{4, 5}}},
		{"remove everything", []op{add(4, 5, 2), add(9, 9, 1), rem(0, maxLine)}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, ref := new(lineSet), refSet{}
			for i, o := range c.ops {
				if o.remove {
					s.remove(o.first, o.last)
					ref.remove(o.first, o.last)
				} else {
					got, want := s.add(o.first, o.last), ref.add(o.first, o.last)
					if got != want || got != o.newLines {
						t.Fatalf("op %d add(%d,%d) = %d, reference %d, table %d", i, o.first, o.last, got, want, o.newLines)
					}
				}
				checkAgainst(t, s, ref)
			}
			if !slices.Equal(s.spans, c.want) {
				t.Fatalf("spans = %v, want %v", s.spans, c.want)
			}
		})
	}
}

func TestLineSetNil(t *testing.T) {
	var s *lineSet
	if s.has(0) {
		t.Error("nil set has a line")
	}
	s.remove(0, maxLine)
	s.reset()
}

// applyOps drives a span set and the map reference with the op stream
// encoded in data (5 bytes per op: kind, window, offset, length, probe)
// over three windows of the line space — the bottom, the middle and the
// top — so that 0 and MaxUint64 are ordinary members.
func applyOps(t testing.TB, data []byte) {
	s, ref := new(lineSet), refSet{}
	bases := [3]uint64{0, 1 << 40, maxLine - 255}
	for ; len(data) >= 5; data = data[5:] {
		first := bases[data[1]%3] + uint64(data[2])
		last := first + uint64(data[3])%24
		if last < first { // wrapped past the top
			last = maxLine
		}
		switch data[0] % 8 {
		case 0, 1, 2, 3:
			if got, want := s.add(first, last), ref.add(first, last); got != want {
				t.Fatalf("add(%d,%d) = %d new lines, reference %d", first, last, got, want)
			}
		case 4, 5:
			s.remove(first, last)
			ref.remove(first, last)
		case 6:
			probe := first + uint64(data[4])%32
			if _, want := ref[probe]; s.has(probe) != want {
				t.Fatalf("has(%d) = %v, reference %v (spans %v)", probe, !want, want, s.spans)
			}
			continue
		case 7:
			if data[4] < 32 { // rarely: a reset ends every streak of growth
				s.reset()
				clear(ref)
			}
		}
		checkAgainst(t, s, ref)
	}
}

// TestLineSetDifferential is the property test: random add/remove/has/
// reset streams leave the span set canonical and equal to the map it
// replaced, with equal new-line counts on every add.
func TestLineSetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 200; round++ {
		data := make([]byte, 5*(1+rng.Intn(400)))
		rng.Read(data)
		applyOps(t, data)
	}
}

func FuzzLineSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 4, 2, 0, 4, 0, 2, 1, 0, 6, 0, 1, 0, 3})
	f.Add([]byte{0, 2, 250, 23, 0, 4, 2, 255, 0, 0, 6, 2, 255, 0, 0})
	f.Add([]byte{1, 1, 9, 9, 0, 5, 1, 12, 2, 0, 7, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { applyOps(t, data) })
}

// TestCacheFootprint pins the per-core size of the two models that every
// core of a 102400-core machine carries whether or not it touches memory:
// the set sits behind one pointer, as the map did.
func TestCacheFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Scoped{}); got > 40 {
		t.Errorf("sizeof(Scoped) = %d, want <= 40", got)
	}
	if got := unsafe.Sizeof(L2{}); got > 32 {
		t.Errorf("sizeof(L2) = %d, want <= 32", got)
	}
	s, l := NewScoped(32), NewL2(32)
	s.Enter()
	s.Leave()
	l.Evict(0, 64)
	if s.present != nil || l.present != nil || l.Contains(0) {
		t.Error("a core that never accessed memory allocated a set")
	}
}

// TestScopedCycleAllocs: once a scope of this shape has run, the next one
// reuses the span slice — leaving a scope is a truncation, not a clear.
func TestScopedCycleAllocs(t *testing.T) {
	s := NewScoped(32)
	cycle := func() {
		s.Enter()
		s.Range(4096, 64, 8)
		s.Range(0, 16, 8)
		s.Range(1<<20, 100, 4)
		s.Range(256, 16, 8)
		s.Range(0, 128, 8)
		s.Leave()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warmed Enter/Range/Leave cycle allocates %v times", n)
	}
}

func TestL2AccessRange(t *testing.T) {
	l := NewL2(32)
	if h, m := l.AccessRange(40, 0); h != 0 || m != 0 {
		t.Errorf("empty range = %d/%d", h, m)
	}
	l.Install(64, 64) // lines 2, 3
	// Four lines from the line of byte 40: lines 1..4, of which 2 and 3 hit.
	if h, m := l.AccessRange(40, 4); h != 2 || m != 2 {
		t.Errorf("range = %d hits / %d misses, want 2/2", h, m)
	}
	if !l.Contains(32) || !l.Contains(128) || l.Contains(0) || l.Contains(160) {
		t.Error("missed lines not installed, or neighbours installed")
	}
	if h, m := l.AccessRange(32, 4); h != 4 || m != 0 {
		t.Errorf("warm range = %d/%d, want 4/0", h, m)
	}
	// The per-line loop it replaced gives the same counts.
	byLine, ranged := NewL2(32), NewL2(32)
	for _, x := range []*L2{byLine, ranged} {
		x.Install(96, 32)
		x.Install(192, 100)
	}
	var h1, m1 int64
	for addr := uint64(8); addr < 8+12*32; addr += 32 {
		if byLine.Access(addr) {
			h1++
		} else {
			m1++
		}
	}
	h2, m2 := ranged.AccessRange(8, 12)
	if h1 != h2 || m1 != m2 {
		t.Errorf("AccessRange = %d/%d, per-line loop %d/%d", h2, m2, h1, m1)
	}
}
