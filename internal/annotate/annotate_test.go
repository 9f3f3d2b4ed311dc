package annotate

import (
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/timing"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func TestCalibratorRatioPositive(t *testing.T) {
	c := NewCalibrator()
	if c.CyclesPerNanosecond <= 0 {
		t.Fatalf("ratio = %v", c.CyclesPerNanosecond)
	}
	// A plausible host executes between 0.1 and 100 simulated cycles per
	// nanosecond with this reference loop.
	if c.CyclesPerNanosecond < 0.01 || c.CyclesPerNanosecond > 1000 {
		t.Errorf("implausible ratio %v", c.CyclesPerNanosecond)
	}
}

func TestCyclesConversion(t *testing.T) {
	c := &Calibrator{CyclesPerNanosecond: 2}
	if got := c.Cycles(100 * time.Nanosecond); got != 200 {
		t.Errorf("Cycles = %v", got)
	}
	if got := c.Cycles(0); got != 1 {
		t.Errorf("zero-duration block should cost 1 cycle, got %v", got)
	}
}

func TestComputeProfiledCharges(t *testing.T) {
	k := core.New(core.Config{Topo: topology.Mesh(1), Seed: 1})
	cal := &Calibrator{CyclesPerNanosecond: 1}
	var before, after vtime.Time
	ran := false
	k.InjectTask(0, "p", func(e *core.Env) {
		before = e.Now()
		cal.ComputeProfiled(e, func() {
			ran = true
			sink += defaultSpin(10_000)
		})
		after = e.Now()
	}, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("profiled block did not run")
	}
	if after <= before {
		t.Error("profiled block charged nothing")
	}
}

func TestModelMix(t *testing.T) {
	m := NewModel()
	c := m.Mix(10, 5, 2, 3)
	if c[timing.IntALU] != 10*2+5*4+2*2 {
		t.Errorf("IntALU = %d", c[timing.IntALU])
	}
	if c[timing.BranchCond] != 10+2 {
		t.Errorf("BranchCond = %d", c[timing.BranchCond])
	}
	if c[timing.FPALU] != 3 {
		t.Errorf("FPALU = %d", c[timing.FPALU])
	}
	if zero := m.Mix(0, 0, 0, 0); zero.Total() != 0 {
		t.Error("empty mix not empty")
	}
}
