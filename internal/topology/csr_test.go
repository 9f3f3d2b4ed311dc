package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"simany/internal/vtime"
)

// addLinkOracle is the incremental builder FromEdges replaced, kept as a
// test oracle: per-core sorted neighbor slices, one insert per directed
// link, and a re-added link (in either direction) overwriting its
// parameters in place.
type addLinkOracle struct {
	adj    [][]int
	lat    [][]vtime.Time
	bw     [][]int
	nlinks int
}

func newAddLinkOracle(n int) *addLinkOracle {
	return &addLinkOracle{adj: make([][]int, n), lat: make([][]vtime.Time, n), bw: make([][]int, n)}
}

// AddLink adds the symmetric pair a ↔ b, or overwrites it.
func (o *addLinkOracle) AddLink(a, b int, lat vtime.Time, bw int) {
	if !o.insert(a, b, lat, bw) {
		o.nlinks += 2
	}
	o.insert(b, a, lat, bw)
}

// insert records from → to and reports whether it already existed.
func (o *addLinkOracle) insert(from, to int, lat vtime.Time, bw int) bool {
	i := sort.SearchInts(o.adj[from], to)
	if i < len(o.adj[from]) && o.adj[from][i] == to {
		o.lat[from][i], o.bw[from][i] = lat, bw
		return true
	}
	o.adj[from] = slices.Insert(o.adj[from], i, to)
	o.lat[from] = slices.Insert(o.lat[from], i, lat)
	o.bw[from] = slices.Insert(o.bw[from], i, bw)
	return false
}

// fromEdges feeds edges to the oracle in order.
func (o *addLinkOracle) fromEdges(edges []Edge) *addLinkOracle {
	for _, e := range edges {
		o.AddLink(e.A, e.B, e.Lat, e.BW)
	}
	return o
}

// sameAsOracle fails t unless top has the oracle's neighbor order,
// latencies, bandwidths and link count, and every link's flat index is
// FirstLink + its position.
func sameAsOracle(t *testing.T, what string, top *Topology, o *addLinkOracle) {
	t.Helper()
	if top.N() != len(o.adj) {
		t.Fatalf("%s: N = %d, oracle %d", what, top.N(), len(o.adj))
	}
	if top.NumLinks() != o.nlinks {
		t.Fatalf("%s: NumLinks = %d, oracle %d", what, top.NumLinks(), o.nlinks)
	}
	lats, bws := top.LinkLatencies(), top.LinkBandwidths()
	for c := range o.adj {
		if !slices.Equal(top.Neighbors(c), o.adj[c]) {
			t.Fatalf("%s: core %d neighbors %v, oracle %v", what, c, top.Neighbors(c), o.adj[c])
		}
		if !slices.Equal(top.NeighborLatencies(c), o.lat[c]) || !slices.Equal(top.NeighborBandwidths(c), o.bw[c]) {
			t.Fatalf("%s: core %d link parameters %v/%v, oracle %v/%v", what, c,
				top.NeighborLatencies(c), top.NeighborBandwidths(c), o.lat[c], o.bw[c])
		}
		for j := range o.adj[c] {
			if l := top.FirstLink(c) + j; lats[l] != o.lat[c][j] || bws[l] != o.bw[c][j] {
				t.Fatalf("%s: core %d link %d: flat index %d disagrees", what, c, j, l)
			}
		}
	}
}

// TestCSRMatchesAddLink checks FromEdges against the incremental AddLink
// builder on every bundled constructor, an adjacency file and random edge
// lists with repeats. The oracle is fed the AddLink calls each flat
// constructor made before FromEdges existed; mesh, clustered and chiplet
// machines were bulk-built from the edge lists their helpers produce.
func TestCSRMatchesAddLink(t *testing.T) {
	lat, bw := DefaultLatency, DefaultBandwidth
	torus := func(w, h int) *addLinkOracle {
		o := newAddLinkOracle(w * h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := y*w + x
				if w > 1 {
					o.AddLink(c, y*w+(x+1)%w, lat, bw)
				}
				if h > 1 {
					o.AddLink(c, ((y+1)%h)*w+x, lat, bw)
				}
			}
		}
		return o
	}
	ring := func(n int) *addLinkOracle {
		o := newAddLinkOracle(n)
		for c := 0; n > 1 && c < n; c++ {
			o.AddLink(c, (c+1)%n, lat, bw)
		}
		return o
	}
	star := func(n int) *addLinkOracle {
		o := newAddLinkOracle(n)
		for c := 1; c < n; c++ {
			o.AddLink(0, c, lat, bw)
		}
		return o
	}
	full := func(n int) *addLinkOracle {
		o := newAddLinkOracle(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				o.AddLink(a, b, lat, bw)
			}
		}
		return o
	}
	clustered := func(n, k int) *addLinkOracle {
		p := DefaultClusteredParams(k)
		per := n / k
		w, h := MeshDims(per)
		var edges []Edge
		for ci := 0; ci < k; ci++ {
			edges = meshEdges(edges, ci*per, w, h, 1, p.IntraLat, p.Bandwidth)
		}
		cw, chh := MeshDims(k)
		return newAddLinkOracle(n).fromEdges(cornerEdges(edges, 0, cw, chh, per, p.InterLat, p.Bandwidth, 0))
	}
	chiplet := func(spec string) *addLinkOracle {
		h, err := ParseChipletSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := h.CoresPerUnit(len(h.Tiers) - 1)
		t0 := h.Tiers[0]
		per0 := t0.W * t0.H
		var edges []Edge
		for u := 0; u < n/per0; u++ {
			edges = meshEdges(edges, u*per0, t0.W, t0.H, 1, t0.Lat, t0.BW)
		}
		for i := 1; i < len(h.Tiers); i++ {
			tr := h.Tiers[i]
			per, group := h.CoresPerUnit(i-1), h.CoresPerUnit(i)
			for g := 0; g < n/group; g++ {
				edges = cornerEdges(edges, g*group, tr.W, tr.H, per, tr.Lat, tr.BW, tr.Penalty)
			}
		}
		return newAddLinkOracle(n).fromEdges(edges)
	}
	for _, tc := range []struct {
		spec   string
		oracle *addLinkOracle
	}{
		{"mesh:4x3", newAddLinkOracle(12).fromEdges(meshEdges(nil, 0, 4, 3, 1, lat, bw))},
		{"mesh:1x1", newAddLinkOracle(1)},
		{"torus:2x5", torus(2, 5)}, // every row's wrap link repeats its mesh link
		{"torus:2x2", torus(2, 2)},
		{"torus:1x4", torus(1, 4)},
		{"torus:5x3", torus(5, 3)},
		{"ring:1", ring(1)},
		{"ring:2", ring(2)}, // the wrap link repeats 0-1 in reverse
		{"ring:7", ring(7)},
		{"star:5", star(5)},
		{"full:6", full(6)},
		{"full:40", full(40)}, // degree above the insertion-sort cut
		{"clustered:4:64", clustered(64, 4)},
		{"chiplet:2x2,3x2", chiplet("2x2,3x2")},
		{"chiplet:2x2@0.5/64+2,2x2", chiplet("2x2@0.5/64+2,2x2")},
	} {
		top, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		sameAsOracle(t, tc.spec, top, tc.oracle)
	}

	// An adjacency file: a link repeated with new parameters, one
	// repeated in reverse, and a matrix that re-declares a link with the
	// defaults.
	const file = "cores 5\nlink 0 1 2 64\nlink 3 2\nlink 1 0 7 16\nlink 4 0 1.5\nlink 2 3 3 32\nmatrix\n" +
		"0 0 0 0 1\n0 0 1 0 0\n0 1 0 0 0\n0 0 0 0 0\n1 0 0 0 0\n"
	top, err := ParseAdjacency(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	o := newAddLinkOracle(5)
	o.AddLink(0, 1, vtime.CyclesInt(2), 64)
	o.AddLink(3, 2, lat, bw)
	o.AddLink(1, 0, vtime.CyclesInt(7), 16)
	o.AddLink(4, 0, vtime.Cycles(1.5), bw)
	o.AddLink(2, 3, vtime.CyclesInt(3), 32)
	o.AddLink(0, 4, lat, bw)
	o.AddLink(1, 2, lat, bw)
	sameAsOracle(t, "adjacency file", top, o)

	// Random edge lists with many repeats, in both directions, with
	// changing parameters.
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(12)
		var edges []Edge
		for e := rng.Intn(4 * n); e > 0; e-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, Edge{a, b, vtime.CyclesInt(int64(rng.Intn(4))), 1 + rng.Intn(3)})
			}
		}
		sameAsOracle(t, fmt.Sprintf("random list %d", iter), FromEdges(n, "rand", edges), newAddLinkOracle(n).fromEdges(edges))
	}
}
