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
		if got := d.busyList.heap[slot].c.ID; got != id {
			t.Fatalf("anchor heap slot %d holds core %d, want core %d", slot, got, id)
		}
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return k, d
}

// stickyKernel is anchoredKernel with cores 5 and 7 stalled at clocks 25
// and 130 beside idle cores 4 and 6, so both are stall-routed; one pick
// finds both runnable (horizons 110 and 140) and moves them to the sticky
// heap, laid out [25 130] by core [5 7].
func stickyKernel(t *testing.T) (*Kernel, *domain) {
	t.Helper()
	k, d := anchoredKernel(t)
	setStalled(k, k.cores[5], vtime.CyclesInt(25))
	setStalled(k, k.cores[7], vtime.CyclesInt(130))
	d.pickIndexed(vtime.Inf)
	if len(d.sk.heap) != 2 || d.sk.heap[0].c.ID != 5 || d.sk.heap[1].c.ID != 7 || len(d.sq.heap) != 0 {
		t.Fatalf("sticky heap %v, stall heap %v: want cores 5 and 7 sticky", d.sk.heap, d.sq.heap)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return k, d
}

// setStalled makes c a busy core stalled mid-task at vt, seated by the
// schedUpdate that ends every step.
func setStalled(k *Kernel, c *Core, vt vtime.Time) {
	setBusy(c, vt)
	c.current = k.NewTask(c.ID, "stalled", nil, nil)
	c.current.state = TaskRunning
	c.dom.schedUpdate(c)
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
		sticky  bool // start from stickyKernel rather than anchoredKernel
		want    string
	}{
		{"idle core claiming an anchor slot", func(k *Kernel, d *domain) {
			k.cores[4].hpos[anchorSlot] = 1
		}, false, "anchor-heap slot"},
		{"heap slots swapped under their back-pointers", func(k *Kernel, d *domain) {
			h := d.busyList.heap
			h[1], h[2] = h[2], h[1]
		}, false, "anchor heap: core"},
		{"heap slots swapped below the root, back-pointers and all", func(k *Kernel, d *domain) {
			d.busyList.swap(1, 3) // 40 now sits above 30
		}, false, "anchor heap: order violated"},
		{"stale anchor floor", func(k *Kernel, d *domain) {
			// The root advanced past its children without a sift: the
			// floor read from it is no anchor minimum any more.
			k.cores[1].vt, k.cores[1].eff = vtime.CyclesInt(50), vtime.CyclesInt(50)
		}, false, "anchor floor"},
		{"sagged frozen-proxy floor", func(k *Kernel, d *domain) {
			d.frozenFloor = vtime.CyclesInt(5)
		}, false, "frozen-proxy floor"},
		{"memo off the relaxation fixpoint", func(k *Kernel, d *domain) {
			c := k.cores[4]
			c.eff = vtime.CyclesInt(777)
			c.effStamp = d.effEpoch
		}, false, "fixpoint"},
		{"runnable count off by one", func(k *Kernel, d *domain) {
			d.rq.within++
		}, false, "runq runnable count"},
		{"stale stall-heap key", func(k *Kernel, d *domain) {
			// Core 5 stalls beside idle cores 4 and 6, so it is seated in
			// the stall heap at its clock; then the clock moves without a
			// re-seat.
			c := k.cores[5]
			setStalled(k, c, vtime.CyclesInt(25))
			c.vt = vtime.CyclesInt(35)
		}, false, "stall heap: core 5 sits at key 25"},
		{"stale runq entry key", func(k *Kernel, d *domain) {
			// An earlier arrival lowers core 6's runnable key without the
			// schedUpdate every queue push posts.
			c := k.cores[6]
			readyAt(k, c, vtime.CyclesInt(50))
			d.schedUpdate(c)
			readyAt(k, c, vtime.CyclesInt(20))
		}, false, "core 6 indexed with key 50"},
		{"border link dropped", func(k *Kernel, d *domain) {
			// A barrier would never refresh the proxy of the dropped link.
			d.border = append(d.border[:2:2], d.border[3:]...)
		}, false, "border link 2 is not"},
		{"idle-neighbour count off by one", func(k *Kernel, d *domain) {
			// Core 5 sits between idle cores 4 and 6.
			k.cores[5].idleNb++
		}, false, "idle-neighbor count"},
		{"extra border link listed", func(k *Kernel, d *domain) {
			// Every listed link matches until the walk runs out of
			// cross-shard links: only the count check sees the extra one.
			d.border = append(d.border, d.border[0])
		}, false, "border links listed"},
		{"sticky heap: slots swapped under their back-pointers", func(k *Kernel, d *domain) {
			h := d.sk.heap
			h[0], h[1] = h[1], h[0]
		}, true, "sticky heap: core 7 sits in slot 0, recorded 1"},
		{"sticky heap: slots swapped, back-pointers and all", func(k *Kernel, d *domain) {
			d.sk.swap(0, 1) // 130 now sits above 25
		}, true, "sticky heap: order violated"},
		{"sticky heap: stale key", func(k *Kernel, d *domain) {
			// Core 5's clock moves without the re-seat step makes.
			k.cores[5].vt = vtime.CyclesInt(35)
		}, true, "sticky heap: core 5 sits at key 25"},
		{"sticky heap: runnable count off by one", func(k *Kernel, d *domain) {
			d.sk.within++
		}, true, "sticky heap runnable count 3"},
		{"sticky heap: member not stall-routed", func(k *Kernel, d *domain) {
			// Idle core 4 has no task in progress.
			d.sk.add(k.cores[4], k.cores[4].vt)
		}, true, "core 4 in the stall or sticky heap but not routed there"},
		{"sticky heap: member mid-step", func(k *Kernel, d *domain) {
			// step takes the core out before it moves its clock.
			d.stepping = k.cores[5]
		}, true, "mid-step core 5 still in the stall or sticky heap"},
		{"sticky heap: member in both heaps", func(k *Kernel, d *domain) {
			d.sq.put(k.cores[7], k.cores[7].vt)
		}, true, "core 7 in the stall heap true, in the sticky heap true"},
		{"sticky heap: member no longer runnable", func(k *Kernel, d *domain) {
			// A birth stamp at 0 caps core 7's horizon at 100, under its
			// clock, without the schedUpdate that takes it out.
			r := k.cores[7].run
			r.births = append(r.births, birth{stamp: 0})
		}, true, "sticky core 7 not runnable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fixture := anchoredKernel
			if tc.sticky {
				fixture = stickyKernel
			}
			k, d := fixture(t)
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
