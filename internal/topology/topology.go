// Package topology describes interconnection networks between simulated
// cores.
//
// SiMany reads the network as an adjacency matrix from a configuration file
// and supports arbitrary organizations; the paper's experiments use uniform
// 2D meshes, clustered meshes (4 or 8 clusters with slower inter-cluster
// links) and the same meshes with polymorphic cores. Each link carries its
// own latency and bandwidth (§III "Architecture Variability").
//
// The adjacency is stored CSR-style: three aligned per-core slices (neighbor
// ID, link latency, link bandwidth), each a view into one flat shared
// backing array for bulk-built topologies. A 100k-core chiplet machine
// (hierarchy.go) therefore costs a few megabytes instead of the hundreds a
// per-edge map entry would — the map[[2]int]Link representation this
// replaces spent ~100 bytes per directed edge before payload.
package topology

import (
	"fmt"
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
	// CSR adjacency: adj[c] lists the neighbors of core c in sorted order;
	// lat[c][i] and bw[c][i] carry the parameters of the directed link
	// c → adj[c][i]. For bulk-built topologies (fromEdges) the three
	// per-core slices are full-capacity views into one flat backing array
	// each, so AddLink's insert must reallocate rather than shift in place.
	adj    [][]int
	lat    [][]vtime.Time
	bw     [][]int
	nlinks int // directed link count (2× the undirected edge count)
	name   string

	hier *Hierarchy // non-nil for hierarchical (chiplet) topologies
	// diamBound, when > 0, is a precomputed upper bound on the diameter
	// that Diameter returns instead of running all-pairs BFS. Adding links
	// can only shrink distances, so the bound stays sound after AddLink.
	diamBound int
}

// New creates an empty topology with n cores and no links.
func New(n int, name string) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid core count %d", n))
	}
	return &Topology{
		n:    n,
		adj:  make([][]int, n),
		lat:  make([][]vtime.Time, n),
		bw:   make([][]int, n),
		name: name,
	}
}

// edge is one undirected edge handed to the bulk builder.
type edge struct {
	a, b int
	lat  vtime.Time
	bw   int
}

// fromEdges bulk-builds a topology from undirected edges: count degrees,
// carve per-core views out of three flat backing arrays, fill, and sort each
// core's segment. Unlike AddLink it panics on duplicate edges (constructors
// that rely on overwrite semantics, such as a 2-wide torus, must stay on the
// AddLink path). The per-core views are capacity-limited so a later AddLink
// cannot grow one view into its neighbor's backing.
func fromEdges(n int, name string, edges []edge) *Topology {
	t := New(n, name)
	deg := make([]int, n+1)
	for _, e := range edges {
		if e.a == e.b {
			panic(fmt.Sprintf("topology: self link at core %d", e.a))
		}
		t.checkCore(e.a)
		t.checkCore(e.b)
		if e.bw <= 0 {
			panic(fmt.Sprintf("topology: non-positive bandwidth on link %d-%d", e.a, e.b))
		}
		if e.lat < 0 {
			panic(fmt.Sprintf("topology: negative latency on link %d-%d", e.a, e.b))
		}
		deg[e.a+1]++
		deg[e.b+1]++
	}
	for c := 0; c < n; c++ {
		deg[c+1] += deg[c] // prefix sums: deg[c] = start offset of core c
	}
	m := 2 * len(edges)
	flatAdj := make([]int, m)
	flatLat := make([]vtime.Time, m)
	flatBW := make([]int, m)
	cursor := make([]int, n)
	copy(cursor, deg[:n])
	put := func(from, to int, lat vtime.Time, bw int) {
		i := cursor[from]
		cursor[from]++
		flatAdj[i] = to
		flatLat[i] = lat
		flatBW[i] = bw
	}
	for _, e := range edges {
		put(e.a, e.b, e.lat, e.bw)
		put(e.b, e.a, e.lat, e.bw)
	}
	for c := 0; c < n; c++ {
		lo, hi := deg[c], deg[c+1]
		t.adj[c] = flatAdj[lo:hi:hi]
		t.lat[c] = flatLat[lo:hi:hi]
		t.bw[c] = flatBW[lo:hi:hi]
		// Insertion sort of the three parallel arrays; node degrees are
		// tiny (≤ 6 for every bundled constructor) so this is cheap.
		a, l, b := t.adj[c], t.lat[c], t.bw[c]
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j-1] > a[j]; j-- {
				a[j-1], a[j] = a[j], a[j-1]
				l[j-1], l[j] = l[j], l[j-1]
				b[j-1], b[j] = b[j], b[j-1]
			}
		}
		for i := 1; i < len(a); i++ {
			if a[i-1] == a[i] {
				panic(fmt.Sprintf("topology: duplicate link %d-%d", c, a[i]))
			}
		}
	}
	t.nlinks = m
	return t
}

// N returns the number of cores.
func (t *Topology) N() int { return t.n }

// Name returns the descriptive name of the topology.
func (t *Topology) Name() string { return t.name }

// Hierarchy returns the tier structure of a hierarchical (chiplet) topology,
// nil for flat topologies.
func (t *Topology) Hierarchy() *Hierarchy { return t.hier }

// AddLink adds a symmetric pair of directed links between a and b.
// Re-adding an existing link overwrites its parameters.
func (t *Topology) AddLink(a, b int, lat vtime.Time, bw int) {
	if a == b {
		panic(fmt.Sprintf("topology: self link at core %d", a))
	}
	t.checkCore(a)
	t.checkCore(b)
	if bw <= 0 {
		panic(fmt.Sprintf("topology: non-positive bandwidth on link %d-%d", a, b))
	}
	if lat < 0 {
		panic(fmt.Sprintf("topology: negative latency on link %d-%d", a, b))
	}
	if !t.insertLink(a, b, lat, bw) {
		t.nlinks += 2
	}
	t.insertLink(b, a, lat, bw)
}

// insertLink records the directed link from → to, keeping the three aligned
// per-core slices sorted by neighbor ID. It reports whether the link already
// existed (in which case only the parameters are updated). Inserts always
// reallocate: the slices may be capacity-limited views into a shared flat
// backing (fromEdges) that must not be shifted or grown in place.
func (t *Topology) insertLink(from, to int, lat vtime.Time, bw int) bool {
	a := t.adj[from]
	i := sort.SearchInts(a, to)
	if i < len(a) && a[i] == to {
		t.lat[from][i] = lat
		t.bw[from][i] = bw
		return true
	}
	t.adj[from] = insertAt(a, i, to)
	t.lat[from] = insertAt(t.lat[from], i, lat)
	t.bw[from] = insertAt(t.bw[from], i, bw)
	return false
}

// insertAt returns a fresh slice equal to s with v inserted at index i.
func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

func (t *Topology) checkCore(c int) {
	if c < 0 || c >= t.n {
		t.badCore(c)
	}
}

// badCore panics for an out-of-range core. It is kept out of checkCore so
// that the accessors below (Neighbors, on every route hop) stay inlinable.
//
//go:noinline
func (t *Topology) badCore(c int) {
	panic(fmt.Sprintf("topology: core %d out of range [0,%d)", c, t.n))
}

// Neighbors returns the sorted neighbor list of core c. The returned slice
// must not be modified.
func (t *Topology) Neighbors(c int) []int {
	t.checkCore(c)
	return t.adj[c]
}

// NeighborLatencies returns the latencies of core c's outgoing links,
// aligned with Neighbors(c). The returned slice must not be modified.
func (t *Topology) NeighborLatencies(c int) []vtime.Time {
	t.checkCore(c)
	return t.lat[c]
}

// NeighborBandwidths returns the bandwidths of core c's outgoing links,
// aligned with Neighbors(c). The returned slice must not be modified.
func (t *Topology) NeighborBandwidths(c int) []int {
	t.checkCore(c)
	return t.bw[c]
}

// Degree returns the number of neighbors of core c.
func (t *Topology) Degree(c int) int {
	t.checkCore(c)
	return len(t.adj[c])
}

// LinkBetween returns the directed link from a to b.
func (t *Topology) LinkBetween(a, b int) (Link, bool) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		return Link{}, false
	}
	adj := t.adj[a]
	i := sort.SearchInts(adj, b)
	if i == len(adj) || adj[i] != b {
		return Link{}, false
	}
	return Link{From: a, To: b, Latency: t.lat[a][i], Bandwidth: t.bw[a][i]}, true
}

// Links returns all directed links in a deterministic order.
func (t *Topology) Links() []Link {
	out := make([]Link, 0, t.nlinks)
	for c := 0; c < t.n; c++ {
		for i, nb := range t.adj[c] {
			out = append(out, Link{From: c, To: nb, Latency: t.lat[c][i], Bandwidth: t.bw[c][i]})
		}
	}
	return out
}

// NumLinks returns the number of directed links.
func (t *Topology) NumLinks() int { return t.nlinks }

// Connected reports whether every core can reach every other core.
func (t *Topology) Connected() bool { return t.Unreachable() < 0 }

// Unreachable returns the lowest-numbered core that core 0 cannot reach, or
// -1 when the topology is connected.
func (t *Topology) Unreachable() int {
	if t.n == 0 {
		return -1
	}
	seen := make([]bool, t.n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[c] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			return c
		}
	}
	return -1
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
	dist := make([]int, t.n)
	for src := 0; src < t.n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, nb := range t.adj[c] {
				if dist[nb] < 0 {
					dist[nb] = dist[c] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, d := range dist {
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

// HopDistance returns the hop count of the shortest path from a to b, or -1
// if unreachable.
func (t *Topology) HopDistance(a, b int) int {
	t.checkCore(a)
	t.checkCore(b)
	if a == b {
		return 0
	}
	dist := make([]int, t.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []int{a}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[c] {
			if dist[nb] < 0 {
				dist[nb] = dist[c] + 1
				if nb == b {
					return dist[nb]
				}
				queue = append(queue, nb)
			}
		}
	}
	return -1
}
