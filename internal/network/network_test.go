package network

import (
	"math/rand"
	"slices"
	"testing"

	"simany/internal/topology"
	"simany/internal/vtime"
)

func mesh4x4() *Model {
	return New(topology.Mesh2D(4, 4, vtime.CyclesInt(1), 128), DefaultParams())
}

func TestRouteShortest(t *testing.T) {
	m := mesh4x4()
	// 0 -> 15 must take 6 hops on a 4x4 mesh.
	r := m.AppendRoute(nil, 0, 15)
	if len(r) != 7 {
		t.Fatalf("route length = %d hops, want 6: %v", len(r)-1, r)
	}
	if r[0] != 0 || r[len(r)-1] != 15 {
		t.Fatalf("route endpoints wrong: %v", r)
	}
	for i := 1; i < len(r); i++ {
		if _, ok := m.topo.LinkBetween(r[i-1], r[i]); !ok {
			t.Fatalf("route uses non-link %d-%d", r[i-1], r[i])
		}
	}
	if r2 := m.AppendRoute(nil, 5, 5); len(r2) != 1 {
		t.Fatalf("self route = %v", r2)
	}
}

func TestRouteDeterministic(t *testing.T) {
	a, b := mesh4x4(), mesh4x4()
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			ra, rb := a.AppendRoute(nil, src, dst), b.AppendRoute(nil, src, dst)
			if len(ra) != len(rb) {
				t.Fatalf("nondeterministic route %d->%d", src, dst)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("nondeterministic route %d->%d: %v vs %v", src, dst, ra, rb)
				}
			}
		}
	}
}

// TestBFSMatchesDijkstra: on meshes and odd rings the BFS fast path keeps
// the same next hops as the Dijkstra tables and their lowest-id
// tie-break. (Tori and even rings are known to differ; see bfsRoutes.)
func TestBFSMatchesDijkstra(t *testing.T) {
	for _, spec := range []string{"mesh:4x4", "mesh:8x8", "mesh:16x16", "mesh:5x3", "ring:9"} {
		m := New(mustSpec(t, spec), DefaultParams())
		if !slices.EqualFunc(m.bfsRoutes(), m.dijkstraRoutes(), slices.Equal[[]int16]) {
			t.Errorf("%s: BFS and Dijkstra next-hop tables differ", spec)
		}
	}
}

func TestSendSelf(t *testing.T) {
	m := mesh4x4()
	msg := m.Send(Message{Src: 3, Dst: 3, Size: 64, Stamp: vtime.CyclesInt(100)})
	if _, hops, _ := m.Stats(); msg.Arrival != vtime.CyclesInt(100) || hops != 0 {
		t.Errorf("self send arrival = %v hops = %d", msg.Arrival, hops)
	}
}

func TestSendLatency(t *testing.T) {
	m := mesh4x4()
	// One hop, 8-byte message -> 1 chunk of 32 bytes at 128 B/cy = 0.25cy
	// serialization + 1cy latency + 0.5cy router = 1.75cy.
	msg := m.Send(Message{Src: 0, Dst: 1, Size: 8, Stamp: 0})
	want := vtime.Cycles(1.75)
	if msg.Arrival != want {
		t.Errorf("arrival = %v, want %v", msg.Arrival, want)
	}
	if r := m.AppendRoute(nil, 0, 1); len(r)-1 != 1 {
		t.Errorf("route %v, want one hop", r)
	}
	// MinLatency must agree on an idle network.
	if got := m.MinLatency(0, 1, 8); got != want {
		t.Errorf("MinLatency = %v, want %v", got, want)
	}
}

func TestSendMultiHopAdds(t *testing.T) {
	m := mesh4x4()
	one := m.MinLatency(0, 1, 8)
	six := m.MinLatency(0, 15, 8)
	if six != 6*one {
		t.Errorf("6-hop latency %v != 6 × %v", six, one)
	}
	if m.MinLatency(7, 7, 100) != 0 {
		t.Error("self min latency should be 0")
	}
}

func TestContentionSerializes(t *testing.T) {
	m := mesh4x4()
	// Two large messages on the same link at the same time: the second
	// must wait for the first's serialization slot.
	a := m.Send(Message{Src: 0, Dst: 1, Size: 128, Stamp: 0})
	b := m.Send(Message{Src: 0, Dst: 1, Size: 128, Stamp: 0})
	if b.Arrival <= a.Arrival {
		t.Errorf("contention not modeled: %v then %v", a.Arrival, b.Arrival)
	}
	// 128 bytes = 4 chunks = 128 bytes at 128 B/cy = 1cy serialization.
	if got, want := b.Arrival-a.Arrival, vtime.CyclesInt(1); got != want {
		t.Errorf("serialization gap = %v, want %v", got, want)
	}
}

func TestContentionIndependentLinks(t *testing.T) {
	m := mesh4x4()
	a := m.Send(Message{Src: 0, Dst: 1, Size: 128, Stamp: 0})
	// Different link (4->5): no interaction.
	b := m.Send(Message{Src: 4, Dst: 5, Size: 128, Stamp: 0})
	if a.Arrival != b.Arrival {
		t.Errorf("independent links interfered: %v vs %v", a.Arrival, b.Arrival)
	}
}

func TestFIFOPerPair(t *testing.T) {
	m := mesh4x4()
	// Force a later-stamped message to be sent first; an earlier-stamped
	// one sent afterwards must not arrive before it (per-pair FIFO).
	first := m.Send(Message{Src: 0, Dst: 15, Size: 1024, Stamp: vtime.CyclesInt(50)})
	second := m.Send(Message{Src: 0, Dst: 15, Size: 8, Stamp: vtime.CyclesInt(0)})
	if second.Arrival < first.Arrival {
		t.Errorf("FIFO violated: %v before %v", second.Arrival, first.Arrival)
	}
}

func TestStats(t *testing.T) {
	m := mesh4x4()
	m.Send(Message{Src: 0, Dst: 15, Size: 100, Stamp: 0})
	m.Send(Message{Src: 1, Dst: 2, Size: 50, Stamp: 0})
	msgs, hops, bytes := m.Stats()
	if msgs != 2 || bytes != 150 {
		t.Errorf("stats = %d msgs %d bytes", msgs, bytes)
	}
	if hops != 6+1 {
		t.Errorf("hops = %d, want 7", hops)
	}
}

func TestDisconnectedPanics(t *testing.T) {
	tp := topology.New(3, "disc")
	tp.AddLink(0, 1, vtime.CyclesInt(1), 128)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for disconnected topology")
		}
	}()
	New(tp, DefaultParams())
}

func TestClusteredRoutesPreferCheapLinks(t *testing.T) {
	// In a clustered topology, intra-cluster routes should use the
	// 0.5-cycle links only.
	tp := topology.Clustered(16, topology.DefaultClusteredParams(4))
	m := New(tp, DefaultParams())
	r := m.AppendRoute(nil, 0, 3) // both in cluster 0 (cores 0..3)
	for i := 1; i < len(r); i++ {
		l, _ := tp.LinkBetween(r[i-1], r[i])
		if l.Latency != vtime.Cycles(0.5) {
			t.Fatalf("intra-cluster route used %v link", l.Latency)
		}
	}
	// Cross-cluster route must include exactly the needed inter links.
	r = m.AppendRoute(nil, 0, 5) // cluster 0 to cluster 1
	inter := 0
	for i := 1; i < len(r); i++ {
		l, _ := tp.LinkBetween(r[i-1], r[i])
		if l.Latency == vtime.CyclesInt(4) {
			inter++
		}
	}
	if inter != 1 {
		t.Errorf("cross-cluster route crossed %d inter links, want 1", inter)
	}
}

// Property: arrival ≥ stamp + uncontended minimum, for random traffic, and
// per-pair arrivals are monotone in emission order.
func TestArrivalProperties(t *testing.T) {
	m := mesh4x4()
	rng := rand.New(rand.NewSource(4))
	last := make(map[[2]int]vtime.Time)
	for i := 0; i < 500; i++ {
		src, dst := rng.Intn(16), rng.Intn(16)
		stamp := vtime.Time(rng.Int63n(int64(vtime.CyclesInt(1000))))
		size := rng.Intn(512)
		msg := m.Send(Message{Src: src, Dst: dst, Size: size, Stamp: stamp})
		if msg.Arrival < stamp {
			t.Fatalf("arrival %v before stamp %v", msg.Arrival, stamp)
		}
		if src != dst {
			if min := m.MinLatency(src, dst, size); msg.Arrival < stamp+0*min {
				t.Fatalf("arrival too early")
			}
		}
		if src != dst {
			pair := [2]int{src, dst}
			if msg.Arrival < last[pair] {
				t.Fatalf("per-pair FIFO violated")
			}
			last[pair] = msg.Arrival
		}
	}
}

// pairFIFOShapes are the machines FuzzPairFIFO draws from: the BFS route
// tables (mesh), the Dijkstra tables over non-uniform latencies
// (clustered), wrap-around routes (torus) and the hierarchical walker
// (chiplet).
var pairFIFOShapes = []string{"mesh:4x4", "clustered:4:16", "torus:6x6", "chiplet:4x4,2x2"}

// FuzzPairFIFO pins per-pair FIFO, which the model guarantees by
// construction rather than by a clamp (see the package doc): random
// traffic, most of it on a few hot pairs so sends contend, with sizes of 1
// to 2048 bytes and per-pair stamps that sometimes go backwards. Every
// arrival is at or after its stamp, and each (src, dst) pair's arrivals
// never decrease in send order.
func FuzzPairFIFO(f *testing.F) {
	for i := range pairFIFOShapes {
		f.Add(int64(7+i), uint8(i))
		f.Add(int64(100+i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		spec := pairFIFOShapes[int(shape)%len(pairFIFOShapes)]
		top, err := topology.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := New(top, DefaultParams())
		n := top.N()
		rng := rand.New(rand.NewSource(seed))
		pair := func() [2]int {
			src := rng.Intn(n)
			return [2]int{src, (src + 1 + rng.Intn(n-1)) % n}
		}
		hot := make([][2]int, 8)
		for i := range hot {
			hot[i] = pair()
		}
		stamp := map[[2]int]vtime.Time{}
		last := map[[2]int]vtime.Time{}
		for i := 0; i < 2000; i++ {
			p := hot[rng.Intn(len(hot))]
			if rng.Intn(4) == 0 {
				p = pair()
			}
			// Steps of -64 to +191 cycles: a pair's stamps mostly advance
			// and sometimes go backwards.
			st := max(0, stamp[p]+vtime.CyclesInt(int64(rng.Intn(256)-64)))
			stamp[p] = st
			msg := m.Send(Message{Src: p[0], Dst: p[1], Size: 1 + rng.Intn(2048), Stamp: st})
			if msg.Arrival < st {
				t.Fatalf("%s send %d %d->%d: arrival %v before stamp %v", spec, i, p[0], p[1], msg.Arrival, st)
			}
			if prev, ok := last[p]; ok && msg.Arrival < prev {
				t.Fatalf("%s send %d %d->%d (size %d, stamp %v): arrival %v before the pair's previous %v",
					spec, i, p[0], p[1], msg.Size, st, msg.Arrival, prev)
			}
			last[p] = msg.Arrival
		}
	})
}

func TestHeavyTrafficMakesLatency(t *testing.T) {
	// A burst of same-link messages must produce strictly growing arrivals.
	m := mesh4x4()
	var prev vtime.Time = -1
	for i := 0; i < 32; i++ {
		msg := m.Send(Message{Src: 0, Dst: 1, Size: 128, Stamp: 0})
		if msg.Arrival <= prev {
			t.Fatalf("burst message %d arrival %v not increasing", i, msg.Arrival)
		}
		prev = msg.Arrival
	}
	// Uncontended latency for the same message is much smaller.
	if idle := m.MinLatency(0, 1, 128); prev <= idle*8 {
		t.Errorf("expected heavy queueing, got %v vs idle %v", prev, idle)
	}
}

// recordingObserver collects LinkWait observations for assertions.
type recordingObserver struct {
	waits []vtime.Time
	nodes []int
}

func (o *recordingObserver) LinkWait(node, nbIdx int, wait vtime.Time) {
	o.waits = append(o.waits, wait)
	o.nodes = append(o.nodes, node)
}

func TestObserverSeesLinkContention(t *testing.T) {
	m := mesh4x4()
	obs := &recordingObserver{}
	m.SetObserver(obs)
	// Two same-stamp messages over the same first link (0->1): the second
	// must wait for the first's serialization slot and the observer must
	// see exactly that wait on node 0.
	first := m.Send(Message{Src: 0, Dst: 1, Size: 256, Stamp: 0})
	if len(obs.waits) != 0 {
		t.Fatalf("idle send reported waits: %v", obs.waits)
	}
	second := m.Send(Message{Src: 0, Dst: 1, Size: 256, Stamp: 0})
	if len(obs.waits) != 1 {
		t.Fatalf("contended send reported %d waits, want 1", len(obs.waits))
	}
	if obs.nodes[0] != 0 {
		t.Errorf("wait attributed to node %d, want 0", obs.nodes[0])
	}
	if obs.waits[0] <= 0 {
		t.Errorf("non-positive wait %v reported", obs.waits[0])
	}
	if second.Arrival <= first.Arrival {
		t.Errorf("contended arrival %v not after %v", second.Arrival, first.Arrival)
	}
	// Removing the observer stops reporting without changing timing.
	m.SetObserver(nil)
	m.Send(Message{Src: 0, Dst: 1, Size: 256, Stamp: 0})
	if len(obs.waits) != 1 {
		t.Errorf("detached observer still called: %v", obs.waits)
	}
}

func TestSendZeroAllocSteadyState(t *testing.T) {
	m := mesh4x4()
	// No warm-up: a source's first send allocates nothing either.
	stamp := vtime.CyclesInt(1000)
	allocs := testing.AllocsPerRun(200, func() {
		for src := 0; src < 16; src++ {
			m.Send(Message{Src: src, Dst: (src + 3) % 16, Size: 64, Stamp: stamp})
		}
		stamp += vtime.CyclesInt(100)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Send allocates %.1f times per 16 sends, want 0", allocs)
	}
}

func TestAppendRouteReusesStorage(t *testing.T) {
	m := mesh4x4()
	// AppendRoute must extend the given slice in place and agree with a
	// route built into fresh storage.
	buf := make([]int, 0, 16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			buf = m.AppendRoute(buf[:0], src, dst)
			if want := m.AppendRoute(nil, src, dst); !slices.Equal(buf, want) {
				t.Fatalf("%d->%d: reused storage %v != fresh %v", src, dst, buf, want)
			}
		}
	}
	// Prefix contents are preserved, not overwritten.
	pre := m.AppendRoute([]int{99}, 0, 2)
	if pre[0] != 99 || pre[1] != 0 || pre[len(pre)-1] != 2 {
		t.Fatalf("prefix not preserved: %v", pre)
	}
	// With enough capacity there is no allocation.
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.AppendRoute(buf[:0], 0, 15)
	})
	if allocs != 0 {
		t.Errorf("AppendRoute with capacity allocates %.1f times, want 0", allocs)
	}
}

func TestChunksBoundaries(t *testing.T) {
	mk := func(minSize, chunkSize int) *Model {
		p := DefaultParams()
		p.MinSize = minSize
		p.ChunkSize = chunkSize
		return New(topology.Mesh2D(4, 4, vtime.CyclesInt(1), 128), p)
	}
	cases := []struct {
		minSize, chunkSize, size int
		want                     int64
	}{
		// Header floor: sizes at or below MinSize clamp up to it.
		{8, 32, 0, 1},
		{8, 32, -5, 1},
		{8, 32, 8, 1},
		// Chunk boundaries: exact multiples don't round up an extra chunk.
		{8, 32, 32, 1},
		{8, 32, 33, 2},
		{8, 32, 64, 2},
		{8, 32, 65, 3},
		// No header floor: non-positive sizes still occupy one chunk.
		{0, 32, 0, 1},
		{0, 32, -1, 1},
		{-4, 32, -2, 1},
		// MinSize spanning several chunks.
		{100, 32, 1, 4},
		{100, 32, 200, 7},
	}
	for _, c := range cases {
		m := mk(c.minSize, c.chunkSize)
		if got := m.chunks(c.size); got != c.want {
			t.Errorf("chunks(size=%d) with MinSize=%d ChunkSize=%d = %d, want %d",
				c.size, c.minSize, c.chunkSize, got, c.want)
		}
	}
}
