package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simany/internal/vtime"
)

func TestMeshDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {8, 4, 2}, {64, 8, 8}, {256, 16, 16},
		{1024, 32, 32}, {12, 4, 3}, {7, 7, 1},
	}
	for _, c := range cases {
		w, h := MeshDims(c.n)
		if w*h != c.n {
			t.Errorf("MeshDims(%d) = %dx%d, product %d", c.n, w, h, w*h)
		}
		if w != c.w || h != c.h {
			t.Errorf("MeshDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestMesh2DStructure(t *testing.T) {
	m := Mesh2D(4, 3, DefaultLatency, DefaultBandwidth)
	if m.N() != 12 {
		t.Fatalf("N = %d", m.N())
	}
	// Corner has degree 2, edge 3, interior 4.
	if d := m.Degree(0); d != 2 {
		t.Errorf("corner degree = %d", d)
	}
	if d := m.Degree(1); d != 3 {
		t.Errorf("edge degree = %d", d)
	}
	if d := m.Degree(5); d != 4 {
		t.Errorf("interior degree = %d", d)
	}
	if !m.Connected() {
		t.Error("mesh not connected")
	}
	// Diameter of a 4x3 mesh is (4-1)+(3-1) = 5.
	if d := m.Diameter(); d != 5 {
		t.Errorf("diameter = %d, want 5", d)
	}
	// Link count: horizontal 3*3=9, vertical 4*2=8, ×2 directions.
	if got := m.NumLinks(); got != 34 {
		t.Errorf("NumLinks = %d, want 34", got)
	}
}

func TestMeshSingleCore(t *testing.T) {
	m := Mesh(1)
	if m.N() != 1 || m.NumLinks() != 0 || !m.Connected() || m.Diameter() != 0 {
		t.Errorf("1-core mesh malformed: links=%d diam=%d", m.NumLinks(), m.Diameter())
	}
}

func TestTorusDiameter(t *testing.T) {
	// 4x4 torus diameter = 2+2 = 4.
	m := Torus2D(4, 4, DefaultLatency, DefaultBandwidth)
	if d := m.Diameter(); d != 4 {
		t.Errorf("torus diameter = %d, want 4", d)
	}
	for c := 0; c < m.N(); c++ {
		if m.Degree(c) != 4 {
			t.Errorf("torus core %d degree = %d", c, m.Degree(c))
		}
	}
}

func TestRingStarFull(t *testing.T) {
	r := Ring(8, DefaultLatency, DefaultBandwidth)
	if d := r.Diameter(); d != 4 {
		t.Errorf("ring-8 diameter = %d, want 4", d)
	}
	s := Star(9, DefaultLatency, DefaultBandwidth)
	if d := s.Diameter(); d != 2 {
		t.Errorf("star-9 diameter = %d, want 2", d)
	}
	if s.Degree(0) != 8 {
		t.Errorf("star hub degree = %d", s.Degree(0))
	}
	f := FullyConnected(5, DefaultLatency, DefaultBandwidth)
	if d := f.Diameter(); d != 1 {
		t.Errorf("full-5 diameter = %d, want 1", d)
	}
}

func TestRingTwoCores(t *testing.T) {
	r := Ring(2, DefaultLatency, DefaultBandwidth)
	if r.NumLinks() != 2 || r.Diameter() != 1 {
		t.Errorf("ring-2: links=%d diam=%d", r.NumLinks(), r.Diameter())
	}
}

func TestClustered(t *testing.T) {
	p := DefaultClusteredParams(4)
	m := Clustered(64, p)
	if m.N() != 64 {
		t.Fatalf("N = %d", m.N())
	}
	if !m.Connected() {
		t.Fatal("clustered topology disconnected")
	}
	// Intra-cluster link latency is 0.5 cycles.
	l, ok := m.LinkBetween(0, 1)
	if !ok {
		t.Fatal("missing intra-cluster link 0-1")
	}
	if l.Latency != vtime.Cycles(0.5) {
		t.Errorf("intra latency = %v", l.Latency)
	}
	// Inter-cluster link from corner core 15 to core 16 (cluster 1 base).
	il, ok := m.LinkBetween(15, 16)
	if !ok {
		t.Fatal("missing inter-cluster link 15-16")
	}
	if il.Latency != vtime.CyclesInt(4) {
		t.Errorf("inter latency = %v", il.Latency)
	}
}

func TestClusteredEightClusters(t *testing.T) {
	m := Clustered(1024, DefaultClusteredParams(8))
	if m.N() != 1024 || !m.Connected() {
		t.Fatalf("clustered-8 1024 malformed (connected=%v)", m.Connected())
	}
}

func TestClusteredBadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-divisible cluster split")
		}
	}()
	Clustered(10, DefaultClusteredParams(4))
}

func TestAddLinkSymmetric(t *testing.T) {
	tp := New(4, "t")
	tp.AddLink(0, 2, vtime.CyclesInt(3), 64)
	a, ok1 := tp.LinkBetween(0, 2)
	b, ok2 := tp.LinkBetween(2, 0)
	if !ok1 || !ok2 {
		t.Fatal("link not symmetric")
	}
	if a.Latency != b.Latency || a.Bandwidth != b.Bandwidth {
		t.Error("asymmetric parameters")
	}
	if a.From != 0 || a.To != 2 || b.From != 2 || b.To != 0 {
		t.Error("wrong endpoints")
	}
}

func TestAddLinkOverwrite(t *testing.T) {
	tp := New(2, "t")
	tp.AddLink(0, 1, vtime.CyclesInt(1), 64)
	tp.AddLink(0, 1, vtime.CyclesInt(9), 32)
	if tp.NumLinks() != 2 {
		t.Errorf("NumLinks = %d after overwrite", tp.NumLinks())
	}
	l, _ := tp.LinkBetween(0, 1)
	if l.Latency != vtime.CyclesInt(9) || l.Bandwidth != 32 {
		t.Error("overwrite did not take")
	}
	if d := tp.Degree(0); d != 1 {
		t.Errorf("degree = %d after overwrite", d)
	}
}

func TestHopDistance(t *testing.T) {
	m := Mesh2D(4, 4, DefaultLatency, DefaultBandwidth)
	if d := m.HopDistance(0, 15); d != 6 {
		t.Errorf("HopDistance(0,15) = %d, want 6", d)
	}
	if d := m.HopDistance(5, 5); d != 0 {
		t.Errorf("HopDistance(5,5) = %d", d)
	}
	disc := New(3, "disc")
	disc.AddLink(0, 1, DefaultLatency, DefaultBandwidth)
	if d := disc.HopDistance(0, 2); d != -1 {
		t.Errorf("HopDistance disconnected = %d, want -1", d)
	}
	if disc.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if c := disc.Unreachable(); c != 2 {
		t.Errorf("Unreachable = %d, want 2", c)
	}
	if c := m.Unreachable(); c != -1 {
		t.Errorf("Unreachable on a mesh = %d, want -1", c)
	}
	if disc.Diameter() != -1 {
		t.Error("diameter of disconnected graph should be -1")
	}
}

func TestNeighborsSorted(t *testing.T) {
	tp := New(6, "t")
	tp.AddLink(3, 5, DefaultLatency, DefaultBandwidth)
	tp.AddLink(3, 1, DefaultLatency, DefaultBandwidth)
	tp.AddLink(3, 4, DefaultLatency, DefaultBandwidth)
	tp.AddLink(3, 0, DefaultLatency, DefaultBandwidth)
	nbs := tp.Neighbors(3)
	want := []int{0, 1, 4, 5}
	if len(nbs) != len(want) {
		t.Fatalf("neighbors = %v", nbs)
	}
	for i := range want {
		if nbs[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nbs, want)
		}
	}
}

// Property: for random connected graphs, hop distance satisfies the triangle
// inequality and symmetry, and diameter equals the max pairwise distance.
func TestDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		n := 2 + rng.Intn(14)
		tp := New(n, "rand")
		// Random spanning tree guarantees connectivity.
		for v := 1; v < n; v++ {
			tp.AddLink(v, rng.Intn(v), DefaultLatency, DefaultBandwidth)
		}
		extra := rng.Intn(n)
		for e := 0; e < extra; e++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				tp.AddLink(a, b, DefaultLatency, DefaultBandwidth)
			}
		}
		maxD := 0
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				dab := tp.HopDistance(a, b)
				if dab != tp.HopDistance(b, a) {
					t.Fatalf("asymmetric distance %d-%d", a, b)
				}
				if dab > maxD {
					maxD = dab
				}
				for c := 0; c < n; c++ {
					if dac, dcb := tp.HopDistance(a, c), tp.HopDistance(c, b); dab > dac+dcb {
						t.Fatalf("triangle inequality violated %d-%d via %d", a, b, c)
					}
				}
			}
		}
		if d := tp.Diameter(); d != maxD {
			t.Fatalf("diameter = %d, max pairwise = %d", d, maxD)
		}
	}
}

func TestMeshDiameterProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		w, h := int(a%12)+1, int(b%12)+1
		m := Mesh2D(w, h, DefaultLatency, DefaultBandwidth)
		return m.Diameter() == (w-1)+(h-1) && m.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
