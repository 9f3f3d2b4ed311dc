package workloads

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRandomArrayDeterministic(t *testing.T) {
	a := RandomArray(5, 100)
	b := RandomArray(5, 100)
	c := RandomArray(6, 100)
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different arrays")
	}
	if !diff {
		t.Error("different seeds produced identical arrays")
	}
}

func TestSortedCopy(t *testing.T) {
	a := RandomArray(1, 500)
	s := SortedCopy(a)
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Error("not sorted")
	}
	// Same multiset.
	var sumA, sumS int64
	for i := range a {
		sumA += a[i]
		sumS += s[i]
	}
	if sumA != sumS {
		t.Error("elements changed")
	}
}

func TestRandomGraphShape(t *testing.T) {
	g := RandomGraph(3, 100, 200)
	if g.N != 100 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 200 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	for u := range g.Adj {
		for _, v := range g.Adj[u] {
			if v == int32(u) {
				t.Fatal("self loop")
			}
			if v < 0 || int(v) >= g.N {
				t.Fatal("edge out of range")
			}
		}
	}
}

func TestConnectedComponentsSeq(t *testing.T) {
	// Two triangles + isolated vertex.
	g := &Graph{N: 7, Adj: make([][]int32, 7)}
	add := func(u, v int32) {
		g.Adj[u] = append(g.Adj[u], v)
		g.Adj[v] = append(g.Adj[v], u)
	}
	add(0, 1)
	add(1, 2)
	add(2, 0)
	add(3, 4)
	add(4, 5)
	add(5, 3)
	labels := ConnectedComponentsSeq(g)
	want := []int32{0, 0, 0, 3, 3, 3, 6}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestCCLabelsAreMinOfComponent(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGraph(seed, 40, 50)
		labels := ConnectedComponentsSeq(g)
		for u := 0; u < g.N; u++ {
			if labels[u] > int32(u) {
				return false // label must be ≤ any member index
			}
			if labels[labels[u]] != labels[u] {
				return false // representative labels itself
			}
			for _, v := range g.Adj[u] {
				if labels[u] != labels[v] {
					return false // neighbors share a component
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDijkstraSeq(t *testing.T) {
	g := &Graph{N: 4, Adj: make([][]int32, 4), Weights: make([][]int32, 4)}
	add := func(u, v int32, w int32) {
		g.Adj[u] = append(g.Adj[u], v)
		g.Weights[u] = append(g.Weights[u], w)
		g.Adj[v] = append(g.Adj[v], u)
		g.Weights[v] = append(g.Weights[v], w)
	}
	add(0, 1, 5)
	add(1, 2, 2)
	add(0, 2, 10)
	dist := DijkstraSeq(g, 0)
	want := []int64{0, 5, 7, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestDijkstraTriangleInequality(t *testing.T) {
	g := RandomWeightedGraph(9, 50, 120, 10)
	dist := DijkstraSeq(g, 0)
	for u := 0; u < g.N; u++ {
		if dist[u] < 0 {
			continue
		}
		for j, v := range g.Adj[u] {
			w := int64(g.Weights[u][j])
			if dist[v] >= 0 && dist[v] > dist[u]+w {
				t.Fatalf("relaxable edge %d->%d: %d > %d+%d", u, v, dist[v], dist[u], w)
			}
		}
	}
	// The spanning chain makes everything reachable.
	for u, d := range dist {
		if d < 0 {
			t.Fatalf("node %d unreachable despite spanning chain", u)
		}
	}
}

func TestRandomSparseShape(t *testing.T) {
	m := RandomSparse(4, 100, 100, 10)
	if m.Rows != 100 || m.Cols != 100 {
		t.Fatal("wrong dims")
	}
	if m.RowPtr[0] != 0 || m.RowPtr[100] != m.NNZ() {
		t.Error("row pointers inconsistent")
	}
	avg := float64(m.NNZ()) / 100
	if avg < 5 || avg > 16 {
		t.Errorf("avg nnz/row = %.1f, want ≈10", avg)
	}
	for r := 0; r < m.Rows; r++ {
		for i := m.RowPtr[r] + 1; i < m.RowPtr[r+1]; i++ {
			if m.ColIdx[i] <= m.ColIdx[i-1] {
				t.Fatal("columns not strictly sorted within row")
			}
		}
	}
}

func TestMultiplySeqIdentityLike(t *testing.T) {
	// Diagonal matrix times x = elementwise product.
	m := &SparseMatrix{Rows: 3, Cols: 3, RowPtr: []int64{0, 1, 2, 3},
		ColIdx: []int32{0, 1, 2}, Vals: []float64{2, 3, 4}}
	y := m.MultiplySeq([]float64{1, 1, 1})
	if y[0] != 2 || y[1] != 3 || y[2] != 4 {
		t.Errorf("y = %v", y)
	}
}

func TestBHTreeMassConservation(t *testing.T) {
	bodies := RandomBodies(2, 200)
	tree := BuildBHTree(bodies, 0.5)
	var total float64
	for _, b := range bodies {
		total += b.Mass
	}
	if math.Abs(tree.Nodes[0].Mass-total) > 1e-9 {
		t.Errorf("root mass %v != total %v", tree.Nodes[0].Mass, total)
	}
}

func TestBHForcesMatchDirectSummation(t *testing.T) {
	bodies := RandomBodies(3, 60)
	// theta=0 forces full traversal to the leaves: equals direct O(n²).
	tree := BuildBHTree(bodies, 1e-9)
	got, _ := tree.ForcesSeq()
	for i := range bodies {
		var fx, fy, fz float64
		for j := range bodies {
			if i == j {
				continue
			}
			dx := bodies[j].X - bodies[i].X
			dy := bodies[j].Y - bodies[i].Y
			dz := bodies[j].Z - bodies[i].Z
			d2 := dx*dx + dy*dy + dz*dz
			d := math.Sqrt(d2) + 1e-9
			f := bodies[i].Mass * bodies[j].Mass / (d2 + 1e-9)
			fx += f * dx / d
			fy += f * dy / d
			fz += f * dz / d
		}
		if math.Abs(got[i].FX-fx) > 1e-6 || math.Abs(got[i].FY-fy) > 1e-6 || math.Abs(got[i].FZ-fz) > 1e-6 {
			t.Fatalf("body %d force (%g,%g,%g) != direct (%g,%g,%g)",
				i, got[i].FX, got[i].FY, got[i].FZ, fx, fy, fz)
		}
	}
}

func TestBHThetaReducesWork(t *testing.T) {
	bodies := RandomBodies(4, 300)
	exact := BuildBHTree(bodies, 1e-9)
	approx := BuildBHTree(bodies, 0.8)
	_, vExact := exact.ForcesSeq()
	_, vApprox := approx.ForcesSeq()
	if vApprox >= vExact {
		t.Errorf("theta=0.8 visited %d nodes, exact visited %d", vApprox, vExact)
	}
}

func TestRandomOctree(t *testing.T) {
	tr := RandomOctree(7, 4, 0.5, 6)
	if len(tr.Nodes) == 0 {
		t.Fatal("empty octree")
	}
	if tr.NumObjects() < int64(len(tr.Nodes)) {
		t.Error("every node must hold at least one object")
	}
	// Children indices valid and acyclic by construction (indices grow).
	for i, n := range tr.Nodes {
		for _, c := range n.Children {
			if c == -1 {
				continue
			}
			if c <= int32(i) || int(c) >= len(tr.Nodes) {
				t.Fatal("bad child index")
			}
		}
	}
}

func TestOctreeUpdateSeq(t *testing.T) {
	a := RandomOctree(9, 3, 0.6, 4)
	b := RandomOctree(9, 3, 0.6, 4)
	pre := a.Checksum()
	sumA := a.UpdateSeq()
	sumB := b.UpdateSeq()
	if sumA != sumB {
		t.Error("update not deterministic")
	}
	if sumA == pre {
		t.Error("update changed nothing")
	}
	if a.Checksum() != sumA {
		t.Error("checksum inconsistent with update result")
	}
}

func TestUpdateObjectBijectiveish(t *testing.T) {
	f := func(v int64) bool {
		return UpdateObject(v) == UpdateObject(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if UpdateObject(1) == UpdateObject(2) {
		t.Error("suspicious collision")
	}
}
