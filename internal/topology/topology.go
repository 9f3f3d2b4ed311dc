// Package topology describes interconnection networks between simulated
// cores.
//
// SiMany reads the network as an adjacency matrix from a configuration file
// and supports arbitrary organizations; the paper's experiments use uniform
// 2D meshes, clustered meshes (4 or 8 clusters with slower inter-cluster
// links) and the same meshes with polymorphic cores. Each link carries its
// own latency and bandwidth (§III "Architecture Variability").
//
// A Topology is immutable compressed-sparse-row (CSR) data, built once by
// FromEdges: core c's directed links are the flat indices off[c] ..
// off[c+1]-1 of three aligned arrays (neighbor ID ascending, latency,
// bandwidth). That flat index is the link's identity everywhere: every
// per-link array of the simulator (the network's contention stamps, the
// kernel's border proxies, the runtime's occupancy beliefs) is one flat
// slice indexed by FirstLink(c)+j for the j-th neighbor of c, so a
// 100k-core machine pays no per-core slice headers for its links.
package topology

import (
	"fmt"
	"slices"
	"sort"

	"simany/internal/vtime"
)

// Link describes one directed edge of the network. Links are created in
// symmetric pairs by all constructors, but the representation is directed so
// that contention is tracked per direction.
type Link struct {
	From, To  int
	Latency   vtime.Time // traversal latency
	Bandwidth int        // bytes per cycle
}

// Topology is an interconnection network: a set of cores (vertices) and
// directed links with individual latencies and bandwidths.
type Topology struct {
	n int
	// CSR adjacency: the links of core c are off[c] .. off[c+1]-1; adj
	// holds each link's far end, sorted per core, and lat and bw its
	// parameters.
	off  []int32
	adj  []int
	lat  []vtime.Time
	bw   []int
	name string

	hier *Hierarchy // non-nil for hierarchical (chiplet) topologies
	// diamBound, when > 0, is a precomputed upper bound on the diameter
	// that Diameter returns instead of running all-pairs BFS.
	diamBound int
}

// Edge is one undirected link handed to FromEdges: both directed links
// A → B and B → A get latency Lat and bandwidth BW.
type Edge struct {
	A, B int
	Lat  vtime.Time
	BW   int
}

// FromEdges builds an n-core topology from undirected edges. An edge that
// joins the same two cores as an earlier one, in either direction,
// replaces its parameters: the last write wins. It panics on a
// non-positive core count, a self link, an out-of-range core, a
// non-positive bandwidth or a negative latency.
//
// The build counts degrees, carves each core's segment out of the flat
// arrays, fills the segments in edge order, sorts each one stably by
// neighbor and keeps the last entry of every run of one neighbor.
func FromEdges(n int, name string, edges []Edge) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid core count %d", n))
	}
	t := &Topology{n: n, name: name}
	off := make([]int32, n+1)
	for _, e := range edges {
		if e.A == e.B {
			panic(fmt.Sprintf("topology: self link at core %d", e.A))
		}
		t.checkCore(e.A)
		t.checkCore(e.B)
		if e.BW <= 0 {
			panic(fmt.Sprintf("topology: non-positive bandwidth on link %d-%d", e.A, e.B))
		}
		if e.Lat < 0 {
			panic(fmt.Sprintf("topology: negative latency on link %d-%d", e.A, e.B))
		}
		off[e.A+1]++
		off[e.B+1]++
	}
	for c := 0; c < n; c++ {
		off[c+1] += off[c] // prefix sums: off[c] = start of core c
	}
	m := 2 * len(edges)
	adj := make([]int, m)
	lat := make([]vtime.Time, m)
	bw := make([]int, m)
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	put := func(from, to int, l vtime.Time, b int) {
		i := cursor[from]
		cursor[from]++
		adj[i], lat[i], bw[i] = to, l, b
	}
	for _, e := range edges {
		put(e.A, e.B, e.Lat, e.BW)
		put(e.B, e.A, e.Lat, e.BW)
	}
	w := int32(0) // write cursor of the deduplicated arrays
	for c := 0; c < n; c++ {
		lo, hi := int(off[c]), int(off[c+1])
		// Insertion sort, stable: node degrees are tiny (≤ 6 for every
		// bundled constructor but the complete graph, whose segments
		// arrive sorted).
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && adj[j-1] > adj[j]; j-- {
				adj[j-1], adj[j] = adj[j], adj[j-1]
				lat[j-1], lat[j] = lat[j], lat[j-1]
				bw[j-1], bw[j] = bw[j], bw[j-1]
			}
		}
		off[c] = w
		for i := lo; i < hi; i++ {
			if i+1 < hi && adj[i+1] == adj[i] {
				continue // a later edge to the same neighbor wins
			}
			adj[w], lat[w], bw[w] = adj[i], lat[i], bw[i]
			w++
		}
	}
	off[n] = w
	t.off = off
	t.adj, t.lat, t.bw = adj[:w:w], lat[:w:w], bw[:w:w]
	return t
}

// N returns the number of cores.
func (t *Topology) N() int { return t.n }

// Name returns the descriptive name of the topology.
func (t *Topology) Name() string { return t.name }

// Hierarchy returns the tier structure of a hierarchical (chiplet) topology,
// nil for flat topologies.
func (t *Topology) Hierarchy() *Hierarchy { return t.hier }

func (t *Topology) checkCore(c int) {
	if c < 0 || c >= t.n {
		panic(fmt.Sprintf("topology: core %d out of range [0,%d)", c, t.n))
	}
}

// The per-core accessors below index the CSR arrays directly, so that they
// inline into the simulator's per-step neighbor passes; a core out of
// range panics with the index error. Returned slices must not be modified.

// Neighbors returns the sorted neighbor list of core c.
func (t *Topology) Neighbors(c int) []int { return t.adj[t.off[c]:t.off[c+1]:t.off[c+1]] }

// NeighborLatencies returns the latencies of core c's outgoing links,
// aligned with Neighbors(c).
func (t *Topology) NeighborLatencies(c int) []vtime.Time {
	return t.lat[t.off[c]:t.off[c+1]:t.off[c+1]]
}

// NeighborBandwidths returns the bandwidths of core c's outgoing links,
// aligned with Neighbors(c).
func (t *Topology) NeighborBandwidths(c int) []int { return t.bw[t.off[c]:t.off[c+1]:t.off[c+1]] }

// Degree returns the number of neighbors of core c.
func (t *Topology) Degree(c int) int { return int(t.off[c+1] - t.off[c]) }

// FirstLink returns the flat index of core c's first link: the link to
// Neighbors(c)[j] has index FirstLink(c)+j, in [0, NumLinks()).
func (t *Topology) FirstLink(c int) int { return int(t.off[c]) }

// LinkTargets returns every link's far end, indexed by flat link index:
// the neighbor lists of all cores end to end.
func (t *Topology) LinkTargets() []int { return t.adj }

// LinkLatencies returns every link's latency, indexed by flat link index.
func (t *Topology) LinkLatencies() []vtime.Time { return t.lat }

// LinkBandwidths returns every link's bandwidth, indexed by flat link
// index.
func (t *Topology) LinkBandwidths() []int { return t.bw }

// LinkBetween returns the directed link from a to b.
func (t *Topology) LinkBetween(a, b int) (Link, bool) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		return Link{}, false
	}
	lo, hi := int(t.off[a]), int(t.off[a+1])
	i := lo + sort.SearchInts(t.adj[lo:hi], b)
	if i == hi || t.adj[i] != b {
		return Link{}, false
	}
	return Link{From: a, To: b, Latency: t.lat[i], Bandwidth: t.bw[i]}, true
}

// Links returns all directed links in a deterministic order: by flat link
// index.
func (t *Topology) Links() []Link {
	out := make([]Link, 0, len(t.adj))
	for c := 0; c < t.n; c++ {
		for i := t.off[c]; i < t.off[c+1]; i++ {
			out = append(out, Link{From: c, To: t.adj[i], Latency: t.lat[i], Bandwidth: t.bw[i]})
		}
	}
	return out
}

// NumLinks returns the number of directed links.
func (t *Topology) NumLinks() int { return len(t.adj) }

// Connected reports whether every core can reach every other core.
func (t *Topology) Connected() bool { return t.Unreachable() < 0 }

// Unreachable returns the lowest-numbered core that core 0 cannot reach, or
// -1 when the topology is connected.
func (t *Topology) Unreachable() int {
	dist := make([]int, t.n)
	if t.bfs(0, dist, make([]int, t.n)) >= 0 {
		return -1
	}
	return slices.Index(dist, -1)
}

// Diameter returns the largest topological distance (in hops) between any
// two cores. The spatial synchronization drift between any two cores is
// bounded by Diameter() × T (§II.A). It returns -1 for a disconnected
// network.
//
// For hierarchical topologies (Chiplet) it returns a precomputed analytic
// upper bound instead of the exact value: the all-pairs BFS is O(n·E) and a
// 100k-core machine would take minutes, while the drift bound only needs an
// upper bound to stay sound.
func (t *Topology) Diameter() int {
	if t.diamBound > 0 {
		return t.diamBound
	}
	diam := 0
	dist, queue := make([]int, t.n), make([]int, t.n)
	for src := 0; src < t.n; src++ {
		ecc := t.bfs(src, dist, queue)
		if ecc < 0 {
			return -1
		}
		diam = max(diam, ecc)
	}
	return diam
}

// HopDistance returns the hop count of the shortest path from a to b, or -1
// if unreachable.
func (t *Topology) HopDistance(a, b int) int {
	t.checkCore(a)
	t.checkCore(b)
	dist := make([]int, t.n)
	t.bfs(a, dist, make([]int, t.n))
	return dist[b]
}

// bfs sets dist[c] to the hop distance from src to every core c, -1 where
// c is unreachable, with queue (N entries) as scratch. It returns the
// largest distance, or -1 when some core is unreachable.
func (t *Topology) bfs(src int, dist, queue []int) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src], queue[0] = 0, src
	for head, tail := 0, 1; head < tail; head++ {
		c := queue[head]
		for _, nb := range t.Neighbors(c) {
			if dist[nb] < 0 {
				dist[nb] = dist[c] + 1
				queue[tail] = nb
				tail++
			}
		}
	}
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		ecc = max(ecc, d)
	}
	return ecc
}
