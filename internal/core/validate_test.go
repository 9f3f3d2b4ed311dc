package core

import (
	"strings"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func TestValidateFreshKernel(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(16), Seed: 1})
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAfterRun(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(8), Seed: 1})
	for c := 0; c < 8; c++ {
		k.InjectTask(c, "w", func(e *Env) {
			for i := 0; i < 20; i++ {
				e.ComputeCycles(15)
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(4), Seed: 1})
	// Corrupt the busy counter.
	k.domains[0].busy = 3
	err := k.Validate()
	if err == nil || !strings.Contains(err.Error(), "busy-core") {
		t.Fatalf("counter corruption not detected: %v", err)
	}
	k.domains[0].busy = 0
	// Corrupt the birth cache.
	k.cores[1].births = map[uint64]vtime.Time{7: vtime.CyclesInt(5)}
	// birthCache still Inf and not dirty -> mismatch.
	err = k.Validate()
	if err == nil || !strings.Contains(err.Error(), "birth") {
		t.Fatalf("birth corruption not detected: %v", err)
	}
}

// anchoredKernel returns a two-shard kernel that never runs, with cores
// 0 to 3 of shard 0 flipped busy through effSite at clocks 30, 10, 20 and
// 40: a live anchor heap to corrupt, laid out [10 30 20 40] by core
// [1 0 2 3].
func anchoredKernel(t *testing.T) (*Kernel, *domain) {
	t.Helper()
	k := New(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT}, Seed: 1, Shards: 2})
	d := k.domains[0]
	for i, vt := range []int64{30, 10, 20, 40} {
		setBusy(k.cores[i], vtime.CyclesInt(vt))
	}
	for slot, id := range []int{1, 0, 2, 3} {
		if got := d.busyList.heap[slot].ID; got != id {
			t.Fatalf("anchor heap slot %d holds core %d, want core %d", slot, got, id)
		}
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return k, d
}

// setBusy makes c a busy core advertising vt, the way domain.step does.
func setBusy(c *Core, vt vtime.Time) {
	if c.idle {
		c.idle = false
		c.dom.busy++
	}
	c.vt = vt
	c.dom.effSite(c)
}

// setIdle retires c from the busy frontier, the way domain.step does.
func setIdle(c *Core) {
	c.idle = true
	c.dom.busy--
	c.dom.effSite(c)
}

func TestValidateDetectsLazyCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(k *Kernel, d *domain)
		want    string
	}{
		{"idle core claiming an anchor slot", func(k *Kernel, d *domain) {
			k.cores[4].busyPos = 1
		}, "anchor-heap slot"},
		{"heap slots swapped under their back-pointers", func(k *Kernel, d *domain) {
			h := d.busyList.heap
			h[1], h[2] = h[2], h[1]
		}, "anchor heap: core"},
		{"heap slots swapped below the root, back-pointers and all", func(k *Kernel, d *domain) {
			d.busyList.swap(1, 3) // 40 now sits above 30
		}, "anchor heap: order violated"},
		{"stale anchor floor", func(k *Kernel, d *domain) {
			// The root advanced past its children without a sift: the
			// floor read from it is no anchor minimum any more.
			k.cores[1].vt, k.cores[1].eff = vtime.CyclesInt(50), vtime.CyclesInt(50)
		}, "anchor floor"},
		{"sagged frozen-proxy floor", func(k *Kernel, d *domain) {
			d.frozenFloor = vtime.CyclesInt(5)
		}, "frozen-proxy floor"},
		{"memo off the relaxation fixpoint", func(k *Kernel, d *domain) {
			c := k.cores[4]
			c.eff = vtime.CyclesInt(777)
			c.effStamp = d.effEpoch
		}, "fixpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, d := anchoredKernel(t)
			tc.corrupt(k, d)
			if err := k.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("not reported (want %q): %v", tc.want, err)
			}
		})
	}
}

// TestValidatingTracerContinuous runs a messaging-heavy workload with the
// validator checking every event: any drift between the incremental state
// and the invariants panics and fails the run.
func TestValidatingTracerContinuous(t *testing.T) {
	topo := topology.Mesh(8)
	k := New(Config{Topo: topo, Policy: Spatial{T: vtime.CyclesInt(30)}, Seed: 2})
	k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
	received := make([]int, 8)
	k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {
		received[msg.Dst]++
	})
	k.Handle(kindPing, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	// Even cores compute and ping their right neighbor; one blocked task
	// on core 7 is woken at the end by core 6.
	var sleeper *Task
	sleeper = k.InjectTask(7, "sleeper", func(e *Env) {
		e.Block()
		e.ComputeCycles(10)
	}, nil, 0)
	for c := 0; c < 7; c++ {
		c := c
		k.InjectTask(c, "w", func(e *Env) {
			for i := 0; i < 10; i++ {
				e.ComputeCycles(20)
				if c%2 == 0 {
					e.Send(c+1, kindOneWay, 8, nil)
				}
			}
			if c == 6 {
				e.Send(7, kindPing, 8, sleeper)
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if received[1] != 10 || received[3] != 10 || received[5] != 10 {
		t.Errorf("pings lost: %v", received)
	}
}
