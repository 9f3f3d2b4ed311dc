package topology

import (
	"strings"
	"testing"

	"simany/internal/vtime"
)

// chip2x2 is a 16-core machine: 2x2 chiplets arranged in a 2x2 chip mesh.
func chip2x2() *Topology {
	return Chiplet([]Tier{
		{W: 2, H: 2, Lat: vtime.CyclesInt(1), BW: 128},
		{W: 2, H: 2, Lat: vtime.CyclesInt(4), BW: 64, Penalty: vtime.CyclesInt(2)},
	})
}

func TestChipletConstruction(t *testing.T) {
	top := chip2x2()
	if top.N() != 16 {
		t.Fatalf("N = %d, want 16", top.N())
	}
	if !top.Connected() {
		t.Fatal("chiplet machine disconnected")
	}
	h := top.Hierarchy()
	if h == nil {
		t.Fatal("Hierarchy() = nil")
	}
	if got := h.NumUnits(0); got != 4 {
		t.Errorf("NumUnits(0) = %d, want 4 chiplets", got)
	}
	if got := h.CoresPerUnit(0); got != 4 {
		t.Errorf("CoresPerUnit(0) = %d, want 4", got)
	}
	// Core numbering is hierarchical: cores 0-3 are chiplet 0, 4-7 chiplet 1.
	if h.UnitOf(5, 0) != 1 || h.UnitOf(3, 0) != 0 {
		t.Errorf("UnitOf misassigns: UnitOf(5,0)=%d UnitOf(3,0)=%d", h.UnitOf(5, 0), h.UnitOf(3, 0))
	}

	// Chiplet-internal mesh link: 1 cycle.
	l, ok := top.LinkBetween(0, 1)
	if !ok || l.Latency != vtime.CyclesInt(1) || l.Bandwidth != 128 {
		t.Errorf("intra-chiplet link = %+v ok=%v, want 1cy/128B", l, ok)
	}
	// Gateway link chiplet0→chiplet1: last core of unit 0 (core 3) to first
	// core of unit 1 (core 4), latency Lat+Penalty = 6.
	g, ok := top.LinkBetween(3, 4)
	if !ok || g.Latency != vtime.CyclesInt(6) || g.Bandwidth != 64 {
		t.Errorf("gateway link = %+v ok=%v, want 6cy/64B", g, ok)
	}
	// No direct link between interior cores of different chiplets.
	if _, ok := top.LinkBetween(0, 4); ok {
		t.Error("unexpected link between chiplet interiors")
	}
	if got := top.Name(); got != "chiplet-2x2-2x2" {
		t.Errorf("Name = %q", got)
	}
	if got := h.String(); got != "2x2 chiplet × 2x2 chip" {
		t.Errorf("String = %q", got)
	}
}

func TestChipletEdgeTiers(t *testing.T) {
	top := chip2x2()
	h := top.Hierarchy()
	// Count every undirected edge once, classified by tier.
	counts := make([]int, len(h.Tiers))
	for _, l := range top.Links() {
		if l.From < l.To {
			counts[h.EdgeTier(l.From, l.To)]++
		}
	}
	// 4 chiplets × 4 mesh edges (2x2 mesh) = 16 tier-0 edges; the 2x2 chip
	// mesh adds 4 gateway edges.
	if counts[0] != 16 || counts[1] != 4 {
		t.Errorf("edge tier counts = %v, want [16 4]", counts)
	}
	if got := h.EdgeTier(0, 1); got != 0 {
		t.Errorf("EdgeTier(0,1) = %d, want 0", got)
	}
	if got := h.EdgeTier(3, 4); got != 1 {
		t.Errorf("EdgeTier(3,4) = %d, want 1", got)
	}
}

// exactDiameter computes the true hop diameter by repeated BFS, bypassing
// the analytic bound that Diameter() returns for hierarchical topologies.
func exactDiameter(t *Topology) int {
	diam := 0
	for a := 0; a < t.N(); a++ {
		for b := a + 1; b < t.N(); b++ {
			d := t.HopDistance(a, b)
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

func TestChipletDiameterBoundSound(t *testing.T) {
	cases := [][]Tier{
		{{W: 2, H: 2, Lat: 1, BW: 1}},
		{{W: 3, H: 3, Lat: 1, BW: 1}, {W: 2, H: 2, Lat: 1, BW: 1}},
		{{W: 2, H: 2, Lat: 1, BW: 1}, {W: 2, H: 2, Lat: 1, BW: 1}, {W: 2, H: 2, Lat: 1, BW: 1}},
		{{W: 4, H: 1, Lat: 1, BW: 1}, {W: 1, H: 3, Lat: 1, BW: 1}},
		{{W: 1, H: 1, Lat: 1, BW: 1}, {W: 3, H: 2, Lat: 1, BW: 1}},
	}
	for _, tiers := range cases {
		top := Chiplet(tiers)
		bound := top.Diameter()
		exact := exactDiameter(top)
		if exact < 0 {
			t.Fatalf("%s: disconnected", top.Name())
		}
		if bound < exact {
			t.Errorf("%s: analytic bound %d < exact diameter %d (drift bound unsound)",
				top.Name(), bound, exact)
		}
	}
}

func TestParseChipletSpecDefaults(t *testing.T) {
	h, err := ParseChipletSpec("8x8,4x4,2x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Tiers) != 3 {
		t.Fatalf("got %d tiers", len(h.Tiers))
	}
	t0, t1, t2 := h.Tiers[0], h.Tiers[1], h.Tiers[2]
	if t0.W != 8 || t0.H != 8 || t0.Lat != DefaultLatency || t0.BW != DefaultBandwidth || t0.Penalty != 0 {
		t.Errorf("tier 0 defaults wrong: %+v", t0)
	}
	// Each higher tier: 4x latency, half bandwidth, penalty = lat/2.
	if t1.Lat != 4*DefaultLatency || t1.BW != DefaultBandwidth/2 || t1.Penalty != 2*DefaultLatency {
		t.Errorf("tier 1 defaults wrong: %+v", t1)
	}
	if t2.Lat != 16*DefaultLatency || t2.BW != DefaultBandwidth/4 || t2.Penalty != 8*DefaultLatency {
		t.Errorf("tier 2 defaults wrong: %+v", t2)
	}
}

func TestParseChipletSpecExplicit(t *testing.T) {
	h, err := ParseChipletSpec("4x4@2/256,2x2@10/32+5,2x2@20+1")
	if err != nil {
		t.Fatal(err)
	}
	t0, t1, t2 := h.Tiers[0], h.Tiers[1], h.Tiers[2]
	if t0.Lat != vtime.Cycles(2) || t0.BW != 256 {
		t.Errorf("tier 0 = %+v", t0)
	}
	if t1.Lat != vtime.Cycles(10) || t1.BW != 32 || t1.Penalty != vtime.Cycles(5) {
		t.Errorf("tier 1 = %+v", t1)
	}
	if t2.Lat != vtime.Cycles(20) || t2.Penalty != vtime.Cycles(1) {
		t.Errorf("tier 2 = %+v", t2)
	}
	// Explicit latency without penalty resets the default penalty to lat/2.
	h, err = ParseChipletSpec("2x2,2x2@10")
	if err != nil {
		t.Fatal(err)
	}
	if h.Tiers[1].Penalty != vtime.Cycles(5) {
		t.Errorf("penalty after explicit latency = %v, want 5cy", h.Tiers[1].Penalty)
	}
}

func TestParseChipletSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "8x8,", "x4", "4x", "0x4", "4x-1", "axb",
		"4x4@", "4x4@-1", "4x4@1/0", "4x4@1/abc", "4x4@1+x", "4x4@1+-2",
		"2x2@nan", "2x2@inf", "2x2@1e300", "2x2@1+inf", "2x2@1+nan", "2x2@0.0001",
		"4294967296x4294967296,2x2", "2x2,2x2@1e15+1e16",
	} {
		if _, err := ParseChipletSpec(spec); err == nil {
			t.Errorf("ParseChipletSpec(%q) accepted", spec)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"mesh:16", 16},
		{"mesh:8x2", 16},
		{"torus:4x4", 16},
		{"ring:10", 10},
		{"star:5", 5},
		{"full:6", 6},
		{"clustered:4:64", 64},
		{"chiplet:2x2,2x2", 16},
		{"64", 64},
	}
	for _, c := range cases {
		top, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if top.N() != c.n {
			t.Errorf("ParseSpec(%q).N() = %d, want %d", c.spec, top.N(), c.n)
		}
	}
	for _, spec := range []string{
		"", "mesh:", "mesh:axb", "torus:9", "ring:0", "clustered:3:64",
		"clustered:4", "hypercube:8", "-5", "chiplet:0x1",
		"mesh:0", "mesh:-5", "torus:4294967296x4294967296",
		"chiplet:4294967296x4294967296,2x2", "chiplet:2x2@nan", "chiplet:2x2@1+inf",
		"chiplet:2x2@1e300",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestChipletValidation(t *testing.T) {
	cases := []struct {
		name  string
		tiers []Tier
	}{
		{"no tiers", nil},
		{"zero width", []Tier{{W: 0, H: 2, Lat: 1, BW: 1}}},
		{"zero bandwidth", []Tier{{W: 2, H: 2, Lat: 1, BW: 0}}},
		{"negative latency", []Tier{{W: 2, H: 2, Lat: -1, BW: 1}}},
		{"negative penalty", []Tier{{W: 2, H: 2, Lat: 1, BW: 1}, {W: 2, H: 1, Lat: 1, BW: 1, Penalty: -1}}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Chiplet did not panic", c.name)
				}
			}()
			Chiplet(c.tiers)
		}()
	}
}

func TestHierarchyTierName(t *testing.T) {
	want := []string{"chiplet", "chip", "package", "board", "tier4"}
	for i, w := range want {
		if got := TierName(i); got != w {
			t.Errorf("TierName(%d) = %q, want %q", i, got, w)
		}
	}
	if !strings.Contains(Chiplet([]Tier{{W: 2, H: 2, Lat: 1, BW: 1}}).Name(), "chiplet") {
		t.Error("single-tier name missing chiplet prefix")
	}
}
