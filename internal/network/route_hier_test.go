package network

import (
	"math/rand"
	"slices"
	"testing"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// descentNextCore is the oracle of the route walker: the per-hop
// hierarchical router it replaced, which re-descends every tier at every
// hop. It returns the global core ID of the next hop from cur toward dst,
// -1 when cur == dst: at the lowest tier whose unit contains both cores,
// either take the gateway link (when cur sits on the exit corner) or
// retarget to the exit corner and recurse downward.
func (r *hierRouter) descentNextCore(cur, dst int) int {
	for {
		if cur == dst {
			return -1
		}
		tier := 0
		for cur/r.per[tier] != dst/r.per[tier] {
			tier++
		}
		if tier == 0 {
			per := r.per[0]
			base := (cur / per) * per
			k := per
			return base + int(r.local[0][(cur-base)*k+(dst-base)])
		}
		per := r.per[tier-1]          // cores per lower unit
		group := r.per[tier]          // cores per this unit
		base := (cur / group) * group // first core of the enclosing unit
		ua := (cur - base) / per
		ub := (dst - base) / per
		k := group / per // lower units per unit at this tier
		un := int(r.local[tier][ua*k+ub])
		if un > ua {
			exit := base + ua*per + per - 1
			if cur == exit {
				return base + un*per
			}
			dst = exit
		} else {
			exit := base + ua*per
			if cur == exit {
				return base + un*per + per - 1
			}
			dst = exit
		}
	}
}

// descentRoute is the oracle's full path from src to dst, both ends
// included.
func descentRoute(m *Model, src, dst int) []int {
	path := []int{src}
	for cur := src; cur != dst; {
		cur = m.hier.descentNextCore(cur, dst)
		path = append(path, cur)
	}
	return path
}

// descentSend times msg over the oracle's route with the model's link
// contention rules, keeping its own per-(src,dst) FIFO clamp in last. The
// model keeps none (per-pair FIFO holds by construction, see the package
// doc), so equal arrivals show the clamp never binds.
func descentSend(m *Model, last map[[2]int]vtime.Time, msg Message) Message {
	if msg.Src == msg.Dst {
		msg.Arrival = msg.Stamp
		return msg
	}
	t := msg.Stamp
	chunkBytes := vtime.Time(m.chunks(msg.Size) * int64(m.params.ChunkSize))
	for cur := msg.Src; cur != msg.Dst; {
		next := m.hier.descentNextCore(cur, msg.Dst)
		l := m.topo.FirstLink(cur) + m.nbIndex(cur, next)
		ser := vtime.Cycle * chunkBytes / vtime.Time(m.bw[l])
		start := vtime.Max(t, m.free[l])
		m.free[l] = start + ser
		t = start + ser + m.lat[l] + m.params.RouterDelay
		cur = next
	}
	key := [2]int{msg.Src, msg.Dst}
	t = vtime.Max(t, last[key])
	last[key] = t
	msg.Arrival = t
	return msg
}

func mustSpec(t testing.TB, spec string) *topology.Topology {
	t.Helper()
	top, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestWalkMatchesDescentAllPairs: for every (src, dst) pair of several
// chiplet machines — including tiers that are 1×N, N×1 or a single unit —
// the walker visits exactly the cores the per-hop descent does.
func TestWalkMatchesDescentAllPairs(t *testing.T) {
	for _, spec := range []string{
		"chiplet:2x3,3x2,2x2",
		"chiplet:4x4,2x2,3x3",
		"chiplet:1x1,1x4",
		"chiplet:1x5,1x1,3x1",
		"chiplet:4x1,1x1,2x2",
		"chiplet:3x3,1x1,1x1",
		"chiplet:1x1,1x1,1x1",
	} {
		m := New(mustSpec(t, spec), DefaultParams())
		n := m.topo.N()
		buf := make([]int, 0, n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				buf = m.AppendRoute(buf[:0], src, dst)
				if want := descentRoute(m, src, dst); !slices.Equal(buf, want) {
					t.Fatalf("%s %d->%d: walker %v, descent %v", spec, src, dst, buf, want)
				}
			}
		}
	}
}

// TestWalkMatchesDescentSeeded sends 200 000 seeded messages on the
// 1024-core chiplet machine through Send and through the per-hop descent
// over an identical second model: routes and arrival times — link
// contention included — must agree. The oracle clamps each pair's arrival
// to its previous one and the model does not, so equality also proves the
// clamp never binds on this chiplet machine.
func TestWalkMatchesDescentSeeded(t *testing.T) {
	top := mustSpec(t, "chiplet:8x8,4x4")
	m, o := New(top, DefaultParams()), New(top, DefaultParams())
	last := map[[2]int]vtime.Time{}
	n := top.N()
	rng := rand.New(rand.NewSource(7))
	buf := make([]int, 0, n)
	ops := 200_000
	if testing.Short() {
		ops = 20_000
	}
	for i := 0; i < ops; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		msg := Message{Src: src, Dst: dst, Size: 8 + rng.Intn(200), Stamp: vtime.CyclesInt(int64(i / 4))}
		got, want := m.Send(msg), descentSend(o, last, msg)
		if got.Arrival != want.Arrival {
			t.Fatalf("send %d (%d->%d): walker arrival %v, descent arrival %v",
				i, src, dst, got.Arrival, want.Arrival)
		}
		buf = m.AppendRoute(buf[:0], src, dst)
		if want := descentRoute(o, src, dst); !slices.Equal(buf, want) {
			t.Fatalf("%d->%d: walker %v, descent %v", src, dst, buf, want)
		}
	}
}

// FuzzHierRoute compares the walker with the per-hop descent on random
// hierarchies of one to three tiers (each tier 1..3 × 1..3) and a random
// (src, dst) pair: the same cores in the same order, every step a link,
// MinLatency equal to the oracle route's uncontended latency, and a
// contended burst on the pair arriving as the clamped oracle times it.
func FuzzHierRoute(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(2), uint8(3), uint8(1), uint8(2), uint8(3), uint16(0), uint16(100))
	f.Add(uint8(1), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(2), uint16(5), uint16(2))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(1), uint8(2), uint8(2), uint8(3), uint16(63), uint16(0))
	f.Fuzz(func(t *testing.T, w0, h0, w1, h1, w2, h2, ntiers uint8, src, dst uint16) {
		dims := [][2]uint8{{w0, h0}, {w1, h1}, {w2, h2}}[:1+int(ntiers)%3]
		var tiers []topology.Tier
		for i, d := range dims {
			tiers = append(tiers, topology.Tier{
				W: 1 + int(d[0])%3, H: 1 + int(d[1])%3,
				Lat: vtime.CyclesInt(int64(1 + 3*i)), BW: 128 >> i, Penalty: vtime.CyclesInt(int64(i)),
			})
		}
		m := New(topology.Chiplet(tiers), DefaultParams())
		n := m.topo.N()
		s, d := int(src)%n, int(dst)%n
		got := m.AppendRoute(nil, s, d)
		want := descentRoute(m, s, d)
		if !slices.Equal(got, want) {
			t.Fatalf("%v %d->%d: walker %v, descent %v", tiers, s, d, got, want)
		}
		// An 8-byte message is one 32-byte chunk on every link.
		var lat vtime.Time
		for i := 1; i < len(want); i++ {
			l, ok := m.topo.LinkBetween(want[i-1], want[i])
			if !ok {
				t.Fatalf("%v %d->%d: descent uses non-link %d-%d", tiers, s, d, want[i-1], want[i])
			}
			lat += vtime.Cycle*32/vtime.Time(l.Bandwidth) + l.Latency + m.params.RouterDelay
		}
		if got := m.MinLatency(s, d, 8); got != lat {
			t.Fatalf("%v %d->%d: MinLatency %v, oracle route %v", tiers, s, d, got, lat)
		}
		// A burst on the pair with shrinking sizes and stamps going
		// backwards, timed by the model and by the oracle over a second
		// model with its own per-pair clamp: equal arrivals show the clamp
		// never binds.
		o := New(m.topo, DefaultParams())
		last := map[[2]int]vtime.Time{}
		for i := 0; i < 4; i++ {
			msg := Message{Src: s, Dst: d, Size: 512 >> (2 * i), Stamp: vtime.CyclesInt(int64(8 - 2*i))}
			if got, want := m.Send(msg), descentSend(o, last, msg); got.Arrival != want.Arrival {
				t.Fatalf("%v %d->%d send %d: arrival %v, clamped oracle %v", tiers, s, d, i, got.Arrival, want.Arrival)
			}
		}
	})
}

func chipletModel() *Model {
	top := topology.Chiplet([]topology.Tier{
		{W: 2, H: 2, Lat: vtime.CyclesInt(1), BW: 128},
		{W: 2, H: 2, Lat: vtime.CyclesInt(4), BW: 64, Penalty: vtime.CyclesInt(2)},
		{W: 2, H: 1, Lat: vtime.CyclesInt(8), BW: 32, Penalty: vtime.CyclesInt(4)},
	})
	return New(top, DefaultParams())
}

// TestHierRouteValid walks every (src, dst) pair of a 3-tier 32-core
// chiplet machine and checks that the hierarchical router produces a real
// path: every step a topology link, terminating at dst, with a hop count
// bounded by the analytic diameter bound.
func TestHierRouteValid(t *testing.T) {
	m := chipletModel()
	top := m.topo
	n := top.N()
	bound := top.Diameter()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			r := m.AppendRoute(nil, src, dst)
			if r[0] != src || r[len(r)-1] != dst {
				t.Fatalf("route %d->%d endpoints wrong: %v", src, dst, r)
			}
			if len(r)-1 > bound {
				t.Fatalf("route %d->%d takes %d hops, above diameter bound %d",
					src, dst, len(r)-1, bound)
			}
			for i := 1; i < len(r); i++ {
				if _, ok := top.LinkBetween(r[i-1], r[i]); !ok {
					t.Fatalf("route %d->%d uses non-link %d-%d: %v", src, dst, r[i-1], r[i], r)
				}
			}
		}
	}
}

// TestHierRouteLocalOptimal: within a single chiplet the hierarchical
// router must match the mesh shortest path (no detours through gateways).
func TestHierRouteLocalOptimal(t *testing.T) {
	m := chipletModel()
	top := m.topo
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			r := m.AppendRoute(nil, src, dst)
			if want := top.HopDistance(src, dst); len(r)-1 != want {
				t.Errorf("intra-chiplet route %d->%d: %d hops, want %d", src, dst, len(r)-1, want)
			}
		}
	}
}

func TestHierRouteDeterministic(t *testing.T) {
	a, b := chipletModel(), chipletModel()
	n := a.topo.N()
	for src := 0; src < n; src += 3 {
		for dst := 0; dst < n; dst += 5 {
			ra, rb := a.AppendRoute(nil, src, dst), b.AppendRoute(nil, src, dst)
			if len(ra) != len(rb) {
				t.Fatalf("nondeterministic hier route %d->%d", src, dst)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("nondeterministic hier route %d->%d: %v vs %v", src, dst, ra, rb)
				}
			}
		}
	}
}

// TestHierSendCrossesTiers: a cross-package send pays at least the gateway
// latencies its path must traverse, and per-pair FIFO holds.
func TestHierSendCrossesTiers(t *testing.T) {
	m := chipletModel()
	// 0 is in chip 0 / package half 0; 31 is the far corner (package
	// gateway latency 8+4, chip gateways 4+2, chiplet links 1).
	msg := m.Send(Message{Src: 0, Dst: 31, Size: 8, Stamp: 0})
	if r := m.AppendRoute(nil, 0, 31); len(r)-1 < 3 {
		t.Fatalf("cross-package route took %d hops: %v", len(r)-1, r)
	}
	// Any path 0->31 crosses the single package gateway (12cy) at least
	// once, so arrival must exceed it.
	if msg.Arrival <= vtime.CyclesInt(12) {
		t.Errorf("cross-package arrival %v does not include gateway latency", msg.Arrival)
	}
	// FIFO: an earlier-stamped message sent later to the same pair must not
	// overtake.
	second := m.Send(Message{Src: 0, Dst: 31, Size: 8, Stamp: 0})
	if second.Arrival < msg.Arrival {
		t.Errorf("per-pair FIFO violated: %v before %v", second.Arrival, msg.Arrival)
	}
}
