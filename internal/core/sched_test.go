package core

import (
	"testing"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// schedTestKernel returns a kernel that never runs: the tests below drive
// its (empty) runnable queue and per-core queues by hand.
func schedTestKernel(t *testing.T) *Kernel {
	t.Helper()
	return New(Config{Topo: topology.Mesh(9), Policy: Spatial{T: DefaultT}, Seed: 1})
}

// readyAt attaches a fresh task with the given arrival stamp to core c.
func readyAt(k *Kernel, c *Core, at vtime.Time) *Task {
	t := k.NewTask(c.ID, "q", nil, nil)
	t.arrival = at
	c.pushReady(t)
	return t
}

func mustCheck(t *testing.T, d *domain) {
	t.Helper()
	if err := d.checkRunq(); err != nil {
		t.Fatal(err)
	}
}

// head is the runq's root entry, the zero entry when it is empty.
func head(q *runq) heapEntry {
	if len(q.heap) == 0 {
		return heapEntry{}
	}
	return q.heap[0]
}

func TestRunqInsertRemoveUpdate(t *testing.T) {
	k := schedTestKernel(t)
	d := k.domains[0]
	q := &d.rq

	c1, c3, c5 := k.Core(1), k.Core(3), k.Core(5)

	readyAt(k, c3, vtime.CyclesInt(50))
	q.update(c3)
	if got := head(q); got.c != c3 || got.key != vtime.CyclesInt(50) {
		t.Fatalf("head = %v, want core 3 at 50", got)
	}
	mustCheck(t, d)

	// Equal keys break ties by core ID, exactly like the scan.
	readyAt(k, c1, vtime.CyclesInt(50))
	q.update(c1)
	if got := head(q).c; got != c1 {
		t.Fatalf("head = core %d, want core 1 (ID tie-break)", got.ID)
	}
	mustCheck(t, d)

	readyAt(k, c5, vtime.CyclesInt(20))
	q.update(c5)
	if got := head(q).c; got != c5 {
		t.Fatalf("head = core %d, want core 5 (earliest key)", got.ID)
	}
	mustCheck(t, d)

	// Redundant update with an unchanged key is a no-op.
	q.update(c5)
	mustCheck(t, d)

	// A new earlier arrival moves the key and repositions the core.
	readyAt(k, c1, vtime.CyclesInt(5))
	q.update(c1)
	if got := head(q); got.c != c1 || got.key != vtime.CyclesInt(5) {
		t.Fatalf("head = core %d key %v, want core 1 at 5", got.c.ID, got.key)
	}
	mustCheck(t, d)

	// Draining a core's queue removes it from the index.
	for len(c1.ready) > 0 {
		c1.popReady()
	}
	q.update(c1)
	if pos := c1.hpos[runSlot]; pos != -1 {
		t.Fatalf("core 1 still indexed at %d after draining", pos)
	}
	if got := head(q).c; got != c5 {
		t.Fatalf("head = core %d, want core 5", got.ID)
	}
	mustCheck(t, d)

	// rebuild from scratch reproduces the same head.
	q.rebuild()
	if got := head(q).c; got != c5 {
		t.Fatalf("head after rebuild = core %d, want core 5", got.ID)
	}
	mustCheck(t, d)
}

func TestRunqCountAtMostAndPick(t *testing.T) {
	k := schedTestKernel(t)
	d := k.domains[0]
	q := &d.rq

	stamps := []int64{70, 20, 50, 20, 90}
	for i, s := range stamps {
		c := k.Core(i)
		readyAt(k, c, vtime.CyclesInt(s))
		q.update(c)
	}
	mustCheck(t, d)

	for _, tc := range []struct {
		limit int64
		want  int
	}{
		{10, 0}, {20, 2}, {50, 3}, {70, 4}, {90, 5},
	} {
		q.arm(vtime.CyclesInt(tc.limit))
		if got := q.within; got != tc.want {
			t.Errorf("within armed at %d = %d, want %d", tc.limit, got, tc.want)
		}
		mustCheck(t, d)
	}
	q.arm(vtime.Inf)
	if got := q.within; got != len(stamps) {
		t.Errorf("within armed at Inf = %d, want %d", got, len(stamps))
	}

	q.arm(vtime.CyclesInt(10))
	if best, n := q.pick(); best.c != nil || n != 0 {
		t.Errorf("pick() armed at 10 = %v, %d, want none", best, n)
	}
	q.arm(vtime.CyclesInt(60))
	best, n := q.pick()
	if best.c == nil || best.c.ID != 1 || n != 3 {
		t.Errorf("pick() armed at 60 = %v, %d, want core 1 of 3", best, n)
	}

	// Keys crossing the armed limit (60) move the count both ways: by a key
	// move, an insert and a remove, each checked against the linear count.
	within := func(stage string, want int) {
		t.Helper()
		if got := q.within; got != want {
			t.Fatalf("%s: within = %d, want %d", stage, got, want)
		}
		mustCheck(t, d)
	}
	readyAt(k, k.Core(4), vtime.CyclesInt(30)) // 90 → 30: moves in
	q.update(k.Core(4))
	within("key 90 → 30", 4)
	for len(k.Core(2).ready) > 0 { // 50: leaves the queue from inside
		k.Core(2).popReady()
	}
	q.update(k.Core(2))
	within("remove at 50", 3)
	readyAt(k, k.Core(6), vtime.CyclesInt(80)) // inserted outside
	q.update(k.Core(6))
	within("insert at 80", 3)
	readyAt(k, k.Core(7), vtime.CyclesInt(60)) // inserted on the limit
	q.update(k.Core(7))
	within("insert at 60", 4)
	k.Core(1).popReady() // 20: its queue drains, so it leaves
	q.update(k.Core(1))
	within("remove at 20", 3)
	if best, n := q.pick(); best.c == nil || best.c.ID != 3 || n != 3 {
		t.Errorf("pick() armed at 60 after the moves = %v, %d, want core 3 of 3", best, n)
	}
	q.rebuild()
	within("rebuild", 3)
	k.Core(7).popReady() // 60: leaves from the limit itself
	q.update(k.Core(7))
	within("remove at 60", 2)
	readyAt(k, k.Core(0), vtime.CyclesInt(60)) // 70 → 60: moves onto the limit
	q.update(k.Core(0))
	within("key 70 → 60", 3)
	readyAt(k, k.Core(0), vtime.CyclesInt(40)) // 60 → 40: stays within
	q.update(k.Core(0))
	within("key 60 → 40", 3)

	// Armed back at Inf, as between rounds, every entry counts.
	q.arm(vtime.Inf)
	if best, n := q.pick(); best.c.ID != 3 || n != 4 {
		t.Errorf("pick() armed at Inf = core %d of %d, want core 3 of 4", best.c.ID, n)
	}
}

// TestReadyMinCacheReordering pins minReadyArrival against a
// recomputation from the raw queue across a pop sequence that reorders
// arrivals: the FIFO pop order (70, 10, 40) disagrees with the stamp
// order, so the minimum must survive both popping a non-minimal head and
// popping the task that carried it.
func TestReadyMinCacheReordering(t *testing.T) {
	k := schedTestKernel(t)
	c := k.Core(0)

	recompute := func() vtime.Time {
		m := vtime.Inf
		for _, t := range c.ready {
			if t.arrival < m {
				m = t.arrival
			}
		}
		return m
	}
	check := func(stage string) {
		t.Helper()
		if got, want := c.minReadyArrival(), recompute(); got != want {
			t.Fatalf("%s: cached ready-min %v, recomputed %v", stage, got, want)
		}
	}

	check("empty")
	readyAt(k, c, vtime.CyclesInt(70))
	check("push 70")
	readyAt(k, c, vtime.CyclesInt(10))
	check("push 10")
	readyAt(k, c, vtime.CyclesInt(40))
	check("push 40")

	// Pop the head (arrival 70): the minimum (10) is untouched.
	if got := c.popReady(); got.arrival != vtime.CyclesInt(70) {
		t.Fatalf("popped arrival %v, want 70", got.arrival)
	}
	check("pop 70")
	// Pop the task carrying the minimum.
	if got := c.popReady(); got.arrival != vtime.CyclesInt(10) {
		t.Fatalf("popped arrival %v, want 10", got.arrival)
	}
	check("pop 10")
	// Push below the new minimum.
	readyAt(k, c, vtime.CyclesInt(15))
	check("push 15")
	c.popReady()
	check("pop 40")
	c.popReady()
	check("drained")
	if got := c.minReadyArrival(); got != vtime.Inf {
		t.Fatalf("drained queue ready-min %v, want Inf", got)
	}
}
