package core

import (
	"reflect"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func chiplet16() *topology.Topology {
	return topology.Chiplet([]topology.Tier{
		{W: 2, H: 2, Lat: vtime.CyclesInt(1), BW: 128},
		{W: 2, H: 2, Lat: vtime.CyclesInt(4), BW: 64, Penalty: vtime.CyclesInt(2)},
	})
}

// TestChipletShardsAlignWithChiplets: on a hierarchical topology the engine
// partitions shard boundaries along chiplet boundaries.
func TestChipletShardsAlignWithChiplets(t *testing.T) {
	topo := chiplet16()
	k := New(Config{Topo: topo, Policy: Spatial{T: DefaultT}, Seed: 1, Shards: 4})
	h := topo.Hierarchy()
	for c := 0; c < topo.N(); c++ {
		u := h.UnitOf(c, 0)
		if k.part[c] != u {
			t.Fatalf("core %d (chiplet %d) assigned to shard %d", c, u, k.part[c])
		}
	}
}

// TestChipletDeterministicAcrossWorkers: on a chiplet machine the sharded
// result depends only on (seed, shards) — never on the host thread count.
func TestChipletDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Result {
		k := New(Config{Topo: chiplet16(), Policy: Spatial{T: DefaultT},
			Seed: 11, Shards: 4, Workers: workers})
		k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {})
		for c := 0; c < 16; c++ {
			c := c
			k.InjectTask(c, "w", func(e *Env) {
				for i := 0; i < 25; i++ {
					var counts [8]int64
					counts[7] = 10
					e.Compute(counts)
					// (c+7)%16 is in a different chiplet for every c, so
					// every message crosses a gateway and a shard boundary.
					e.Send((c+7)%16, kindOneWay, 16, nil)
				}
			}, nil, 0)
		}
		res, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: result diverged:\n  got  %+v\n  want %+v", w, got, base)
		}
	}
}

// TestChipletFingerprintCoversHierarchy: tier parameters change the
// fingerprint (checkpoints must not restore across machine shapes); the
// same configuration always agrees with itself.
func TestChipletFingerprintCoversHierarchy(t *testing.T) {
	fp := func(tiers []topology.Tier) uint64 {
		k := New(Config{Topo: topology.Chiplet(tiers), Policy: Spatial{T: DefaultT}, Seed: 1})
		return k.fprint
	}
	base := []topology.Tier{
		{W: 2, H: 2, Lat: vtime.CyclesInt(1), BW: 128},
		{W: 2, H: 2, Lat: vtime.CyclesInt(4), BW: 64, Penalty: vtime.CyclesInt(2)},
	}
	same := fp(base)
	if fp(base) != same {
		t.Error("fingerprint not deterministic")
	}
	diffPen := []topology.Tier{
		{W: 2, H: 2, Lat: vtime.CyclesInt(1), BW: 128},
		{W: 2, H: 2, Lat: vtime.CyclesInt(4), BW: 64, Penalty: vtime.CyclesInt(3)},
	}
	if fp(diffPen) == same {
		t.Error("fingerprint ignores tier penalty")
	}
}

// TestDisconnectedTopologyRejected: a disconnected network must be refused
// at construction time (the spatial drift bound Diameter×T is meaningless
// when the diameter is unbounded).
func TestDisconnectedTopologyRejected(t *testing.T) {
	disc := topology.New(4, "disc")
	disc.AddLink(0, 1, vtime.CyclesInt(1), 128)
	disc.AddLink(2, 3, vtime.CyclesInt(1), 128)
	if disc.Diameter() != -1 {
		t.Fatalf("Diameter = %d, want -1 sentinel", disc.Diameter())
	}
	defer func() {
		if recover() == nil {
			t.Error("core.New accepted a disconnected topology")
		}
	}()
	New(Config{Topo: disc, Policy: Spatial{T: DefaultT}, Seed: 1})
}
