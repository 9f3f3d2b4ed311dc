package core_test

import (
	"fmt"
	"slices"
	"testing"

	"simany/internal/core"
	"simany/internal/drift"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// askLog wraps a policy and logs each core whose Horizon is asked outside
// a step: the evaluations a pick makes.
type askLog struct {
	core.Policy
	asked *[]int
}

func (p askLog) Horizon(c *core.Core) vtime.Time {
	if !core.Stepping(c) {
		*p.asked = append(*p.asked, c.ID)
	}
	return p.Policy.Horizon(c)
}

// TestLaxP2PAsksEveryStalledCoreOncePerPick: LaxP2P draws a referee from
// the core's RNG at every Horizon evaluation, so the scheduler must ask
// every stalled core exactly once per pick, as a scan over every core
// would, and keep no sticky set for it. Thirty-two busy cores around four
// idle ones stall often on a small slack; at every pick the cores asked
// since the previous one must be exactly the stall heap's members, in
// heap pre-order.
func TestLaxP2PAsksEveryStalledCoreOncePerPick(t *testing.T) {
	var asked []int
	k := core.New(core.Config{
		Topo:   topology.Mesh(36),
		Policy: askLog{drift.LaxP2P{Slack: vtime.CyclesInt(5)}, &asked},
		Seed:   3,
	})
	picks, multi, most := 0, 0, 0
	core.SetPickHook(k, func(c *core.Core, _ vtime.Time, _ int) {
		picks++
		want := core.StallPreorder(c)
		if !slices.Equal(asked, want) {
			panic(fmt.Sprintf("pick %d: asked %v, stall heap in pre-order %v", picks, asked, want))
		}
		if len(want) > 1 {
			multi++
		}
		most = max(most, len(want))
		asked = asked[:0]
	})
	for i := 0; i < 36; i++ {
		if i%9 == 4 {
			continue // idle: cores 4, 13, 22 and 31 sit between busy ones
		}
		block := float64(10 + 7*(i%4))
		k.InjectTask(i, "w", func(e *core.Env) {
			for s := 0; s < 100; s++ {
				e.ComputeCycles(block)
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if multi == 0 || most < 3 {
		t.Fatalf("%d picks, %d with more than one stalled core, at most %d: the workload does not exercise the walk", picks, multi, most)
	}
	t.Logf("%d picks, %d asked more than one stalled core, at most %d", picks, multi, most)
}
