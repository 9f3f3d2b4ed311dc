package topology

import (
	"fmt"
	"math"

	"simany/internal/vtime"
)

// DefaultLatency is the base link traversal latency used by the paper's
// distributed-memory configuration (1 cycle, §V).
var DefaultLatency = vtime.CyclesInt(1)

// DefaultBandwidth is the paper's link bandwidth (128 bytes per cycle, §V).
const DefaultBandwidth = 128

// MeshDims returns the width and height used for an n-core 2D mesh: the
// most square factorization of n (paper meshes are 8=4x2, 64=8x8,
// 256=16x16, 1024=32x32).
func MeshDims(n int) (w, h int) {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh size %d", n))
	}
	w = int(math.Sqrt(float64(n)))
	for ; w >= 1; w-- {
		if n%w == 0 {
			return n / w, w
		}
	}
	return n, 1
}

// Mesh2D builds a w×h 2D mesh with uniform link parameters.
func Mesh2D(w, h int, lat vtime.Time, bw int) *Topology {
	return FromEdges(w*h, fmt.Sprintf("mesh-%dx%d", w, h),
		meshEdges(nil, 0, w, h, 1, lat, bw))
}

// meshEdges appends the undirected edges of a w×h mesh whose node (x,y) is
// base + (y·w+x)·stride. stride > 1 lays a mesh over units of that many
// cores (the hierarchy tiers connect unit corners, hierarchy.go).
func meshEdges(edges []Edge, base, w, h, stride int, lat vtime.Time, bw int) []Edge {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := base + (y*w+x)*stride
			if x+1 < w {
				edges = append(edges, Edge{c, c + stride, lat, bw})
			}
			if y+1 < h {
				edges = append(edges, Edge{c, c + w*stride, lat, bw})
			}
		}
	}
	return edges
}

// Mesh builds the most-square 2D mesh with n cores and default link
// parameters.
func Mesh(n int) *Topology {
	w, h := MeshDims(n)
	return Mesh2D(w, h, DefaultLatency, DefaultBandwidth)
}

// Torus2D builds a w×h 2D torus (mesh with wrap-around links). On a side
// of width 2 the wrap-around link joins the same two cores as the mesh
// link, and FromEdges keeps one.
func Torus2D(w, h int, lat vtime.Time, bw int) *Topology {
	var edges []Edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := y*w + x
			if w > 1 {
				edges = append(edges, Edge{c, y*w + (x+1)%w, lat, bw})
			}
			if h > 1 {
				edges = append(edges, Edge{c, ((y+1)%h)*w + x, lat, bw})
			}
		}
	}
	return FromEdges(w*h, fmt.Sprintf("torus-%dx%d", w, h), edges)
}

// Ring builds an n-core ring.
func Ring(n int, lat vtime.Time, bw int) *Topology {
	var edges []Edge
	for c := 0; n > 1 && c < n; c++ {
		edges = append(edges, Edge{c, (c + 1) % n, lat, bw})
	}
	return FromEdges(n, fmt.Sprintf("ring-%d", n), edges)
}

// Star builds an n-core star centered on core 0.
func Star(n int, lat vtime.Time, bw int) *Topology {
	var edges []Edge
	for c := 1; c < n; c++ {
		edges = append(edges, Edge{0, c, lat, bw})
	}
	return FromEdges(n, fmt.Sprintf("star-%d", n), edges)
}

// FullyConnected builds a complete graph over n cores.
func FullyConnected(n int, lat vtime.Time, bw int) *Topology {
	var edges []Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, Edge{a, b, lat, bw})
		}
	}
	return FromEdges(n, fmt.Sprintf("full-%d", n), edges)
}

// ClusteredParams carries the link parameters of a clustered mesh. The
// paper's configuration uses 0.5-cycle intra-cluster links and 4-cycle
// inter-cluster links (4× the base latency, §V).
type ClusteredParams struct {
	Clusters  int
	IntraLat  vtime.Time
	InterLat  vtime.Time
	Bandwidth int
}

// DefaultClusteredParams returns the paper's clustered configuration for
// the given cluster count.
func DefaultClusteredParams(clusters int) ClusteredParams {
	return ClusteredParams{
		Clusters:  clusters,
		IntraLat:  vtime.Cycles(0.5),
		InterLat:  vtime.CyclesInt(4),
		Bandwidth: DefaultBandwidth,
	}
}

// Clustered builds an n-core network split into p.Clusters equal 2D-mesh
// clusters. Clusters are arranged in their own most-square mesh; adjacent
// clusters are joined by a single inter-cluster link between their corner
// cores.
func Clustered(n int, p ClusteredParams) *Topology {
	k := p.Clusters
	if k <= 0 || n%k != 0 {
		panic(fmt.Sprintf("topology: %d cores do not split into %d clusters", n, k))
	}
	per := n / k
	w, h := MeshDims(per)
	var edges []Edge
	// Intra-cluster meshes.
	for ci := 0; ci < k; ci++ {
		edges = meshEdges(edges, ci*per, w, h, 1, p.IntraLat, p.Bandwidth)
	}
	// Inter-cluster links: clusters form their own mesh, connected through
	// corner cores (core 0 of one cluster to core per-1 of the other).
	cw, chh := MeshDims(k)
	edges = cornerEdges(edges, 0, cw, chh, per, p.InterLat, p.Bandwidth, 0)
	return FromEdges(n, fmt.Sprintf("clustered-%d-of-%d", k, per), edges)
}

// cornerEdges appends the gateway links of a uw×uh mesh of per-core units
// starting at base: each unit's last core connects to the first core of its
// +x and +y neighbor units. pen is a boundary-crossing penalty added to the
// link latency (the hierarchy tiers' serialization cost; 0 for Clustered).
func cornerEdges(edges []Edge, base, uw, uh, per int, lat vtime.Time, bw int, pen vtime.Time) []Edge {
	for uy := 0; uy < uh; uy++ {
		for ux := 0; ux < uw; ux++ {
			ui := uy*uw + ux
			last := base + ui*per + per - 1
			if ux+1 < uw {
				edges = append(edges, Edge{last, base + (ui+1)*per, lat + pen, bw})
			}
			if uy+1 < uh {
				edges = append(edges, Edge{last, base + (ui+uw)*per, lat + pen, bw})
			}
		}
	}
	return edges
}
