package core

import (
	"fmt"
	"math/rand"
	"testing"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// refreshOracle is the worklist relaxation Kernel.refreshEff used before
// its settle-once BFS, kept here as the oracle: busy cores anchor at their
// clocks, idle cores relax downward from Inf through the relay rule until
// nothing improves. Downward-only relaxation is order-independent, so any
// worklist order reaches the same (unique) fixpoint. It reads the clocks
// and idle flags and returns every core's effective time, leaving the
// kernel untouched.
func refreshOracle(k *Kernel) []vtime.Time {
	eff := make([]vtime.Time, len(k.cores))
	var queue []int
	for _, c := range k.cores {
		if c.idle {
			eff[c.ID] = vtime.Inf
			queue = append(queue, c.ID)
		} else {
			eff[c.ID] = c.vt
		}
	}
	for head := 0; head < len(queue); head++ {
		c := k.cores[queue[head]]
		m := vtime.Inf
		for _, nbID := range k.neighbors(c) {
			m = min(m, eff[nbID])
		}
		e := satAdd(m, k.relayDelta)
		if e >= eff[c.ID] {
			continue
		}
		eff[c.ID] = e
		for _, nbID := range k.neighbors(c) {
			if k.cores[nbID].idle {
				queue = append(queue, nbID)
			}
		}
	}
	return eff
}

// refreshMatchesOracle runs the barrier refresh and compares what it left
// behind with the oracle: every core's eff, every cross-shard proxy (found
// by walking the links, not the border lists under test) and every
// domain's frozen floor. Kernel.Validate then checks the rebuilt anchor
// heaps, the border lists and the seeded idle memos.
func refreshMatchesOracle(k *Kernel) error {
	want := refreshOracle(k)
	k.refreshEff()
	for _, c := range k.cores {
		if c.eff != want[c.ID] {
			return fmt.Errorf("core %d (idle %v, clock %v): eff %v, oracle %v", c.ID, c.idle, c.vt, c.eff, want[c.ID])
		}
	}
	for _, d := range k.domains {
		floor := vtime.Inf
		for _, c := range d.cores {
			first := int(c.links[0])
			for j, nbID := range k.neighbors(c) {
				if k.cores[nbID].dom == d {
					continue
				}
				if p := k.nbEff[first+j]; p != want[nbID] {
					return fmt.Errorf("domain %d: core %d's proxy for core %d is %v, oracle %v", d.id, c.ID, nbID, p, want[nbID])
				}
				floor = min(floor, want[nbID])
			}
		}
		if d.frozenFloor != floor {
			return fmt.Errorf("domain %d: frozen floor %v, oracle %v", d.id, d.frozenFloor, floor)
		}
	}
	return k.Validate()
}

// refreshShapes are the topologies the refresh is checked on: flat mesh
// and torus, a two-tier chiplet machine and the paper's clustered mesh,
// 64 cores each so sixteen shards still hold four.
var refreshShapes = []struct {
	name  string
	build func() (*topology.Topology, error)
}{
	{"mesh", func() (*topology.Topology, error) { return topology.ParseSpec("mesh:8x8") }},
	{"torus", func() (*topology.Topology, error) { return topology.ParseSpec("torus:8x8") }},
	{"chiplet", func() (*topology.Topology, error) { return topology.ParseSpec("chiplet:4x4,2x2") }},
	{"clustered", func() (*topology.Topology, error) {
		return topology.Clustered(64, topology.DefaultClusteredParams(4)), nil
	}},
}

// TestRefreshEffMatchesRelaxation holds the settle-once refresh to the
// worklist relaxation it replaced on every shape, at 2, 4 and 16 shards,
// with no, one, all and a random quarter of the cores busy, at ordinary
// clocks and at clocks within a few delta of Inf (where the relay sum
// saturates). Each kernel is refreshed twice, a random set of cores
// flipped in between, so the second refresh starts from the first one's
// values and reused scratch.
func TestRefreshEffMatchesRelaxation(t *testing.T) {
	for _, shape := range refreshShapes {
		for _, shards := range []int{2, 4, 16} {
			for _, busy := range []string{"none", "one", "all", "random"} {
				for _, nearInf := range []bool{false, true} {
					name := fmt.Sprintf("%s/shards%d/%s/nearInf=%v", shape.name, shards, busy, nearInf)
					t.Run(name, func(t *testing.T) {
						topo, err := shape.build()
						if err != nil {
							t.Fatal(err)
						}
						k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 1, Shards: shards, Workers: 1})
						rng := rand.New(rand.NewSource(int64(len(name))))
						clock := func() vtime.Time {
							if nearInf {
								return vtime.Inf - k.relayDelta*vtime.Time(rng.Intn(4)) - vtime.Time(rng.Int63n(int64(k.relayDelta)))
							}
							return vtime.CyclesInt(rng.Int63n(5000))
						}
						n := len(k.cores)
						one := rng.Intn(n)
						for i, c := range k.cores {
							if busy == "all" || (busy == "one" && i == one) || (busy == "random" && rng.Intn(4) == 0) {
								setBusy(c, clock())
							}
						}
						if err := refreshMatchesOracle(k); err != nil {
							t.Fatalf("first refresh: %v", err)
						}
						for _, c := range k.cores {
							switch {
							case rng.Intn(3) > 0:
							case c.idle:
								setBusy(c, clock())
							default:
								setIdle(c)
							}
						}
						if err := refreshMatchesOracle(k); err != nil {
							t.Fatalf("second refresh: %v", err)
						}
					})
				}
			}
		}
	}
}

// FuzzRefreshEff checks the settle-once refresh against the oracle on
// fuzzed machines: shape and shard count, the busy set as a bitmap over
// core IDs, and clocks as a base (up to Inf) plus per-core offsets of up
// to eight delta, so relay sums saturate whenever the base runs close to
// Inf.
func FuzzRefreshEff(f *testing.F) {
	near := int64(vtime.Inf - 3*DefaultT)
	f.Add(uint8(0), uint8(2), []byte{0x01}, int64(0), []byte{0})
	f.Add(uint8(1), uint8(4), []byte{0xff, 0x0f, 0xa5}, int64(12345), []byte{3, 200, 17})
	f.Add(uint8(2), uint8(16), []byte{0x81, 0x42, 0x24, 0x18}, near, []byte{0, 8, 16, 255})
	f.Add(uint8(3), uint8(3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, near, []byte{1})
	f.Fuzz(func(t *testing.T, shape, shards uint8, busy []byte, base int64, offsets []byte) {
		topo, err := refreshShapes[int(shape)%len(refreshShapes)].build()
		if err != nil {
			t.Fatal(err)
		}
		k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 1, Shards: 1 + int(shards)%16, Workers: 1})
		b := vtime.Time(uint64(base) >> 1) // any non-negative time, up to Inf
		for i, c := range k.cores {
			if i/8 >= len(busy) || busy[i/8]>>(i%8)&1 == 0 {
				continue
			}
			off := vtime.Time(0)
			if len(offsets) > 0 {
				off = k.relayDelta / 32 * vtime.Time(offsets[i%len(offsets)])
			}
			setBusy(c, satAdd(b, off))
		}
		if err := refreshMatchesOracle(k); err != nil {
			t.Fatal(err)
		}
	})
}
