package config

import (
	"testing"

	"simany/internal/core"
	"simany/internal/vtime"
)

func TestDefaultMachineBuilds(t *testing.T) {
	k, r, err := Default(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.NumCores() != 8 {
		t.Errorf("cores = %d", k.NumCores())
	}
	if k.Policy().Name() != "spatial" {
		t.Errorf("policy = %s", k.Policy().Name())
	}
	if r == nil {
		t.Fatal("no runtime")
	}
}

func TestPolymorphicSpeeds(t *testing.T) {
	m := Default(8)
	m.Style = Polymorphic
	s := m.Speeds()
	if len(s) != 8 {
		t.Fatalf("speeds = %v", s)
	}
	var total float64
	for i, v := range s {
		if i%2 == 0 && v != 0.5 {
			t.Errorf("even core speed = %v", v)
		}
		if i%2 == 1 && v != 1.5 {
			t.Errorf("odd core speed = %v", v)
		}
		total += v
	}
	// Same cumulated computing power as uniform.
	if total != 8 {
		t.Errorf("total power = %v", total)
	}
}

func TestClusteredTopology(t *testing.T) {
	m := Default(64)
	m.Style = Clustered4
	topo := m.Topology()
	if topo.N() != 64 || !topo.Connected() {
		t.Error("bad clustered topology")
	}
	m.Style = Clustered8
	if m.Topology().N() != 64 {
		t.Error("bad clustered8 topology")
	}
}

func TestPolicyParsing(t *testing.T) {
	cases := map[string]string{
		"":           "spatial",
		"spatial":    "spatial",
		"cyclelevel": "cycle-level",
		"quantum:50": "quantum",
		"slack:200":  "bounded-slack",
		"laxp2p:100": "laxp2p",
		"unbounded":  "unbounded",
	}
	for in, want := range cases {
		m := Default(4)
		m.Policy = in
		k, _, err := m.Build()
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if k.Policy().Name() != want {
			t.Errorf("%q -> %s, want %s", in, k.Policy().Name(), want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	for name, m := range map[string]Machine{
		"unknown policy":      {Cores: 4, Policy: "wat"},
		"negative policy arg": {Cores: 4, Policy: "quantum:-5"},
		"garbage policy arg":  {Cores: 4, Policy: "slack:x"},
		"zero policy arg":     {Cores: 4, Policy: "laxp2p:0"},
		// Rounded to a zero quantum and divided by it in Horizon.
		"sub-resolution policy arg": {Cores: 4, Policy: "quantum:0.0001"},
		// Ran with a NaN quantum and reported a false deadlock.
		"NaN policy arg": {Cores: 4, Policy: "quantum:nan"},
		"inf policy arg": {Cores: 4, Policy: "slack:inf"},
		"zero cores":     Default(0),
		// Used to build Spatial{T: -5}: horizons behind the slowest neighbor.
		"negative T": {Cores: 4, T: vtime.CyclesInt(-5)},
	} {
		if _, _, err := m.Build(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestStyleAndMemStrings(t *testing.T) {
	if Uniform.String() != "uniform" || Polymorphic.String() != "polymorphic" ||
		Clustered4.String() != "clustered4" || Clustered8.String() != "clustered8" {
		t.Error("style names")
	}
	if SharedMem.String() != "shared" || SharedMemCoherent.String() != "shared+coherence" ||
		DistributedMem.String() != "distributed" {
		t.Error("mem names")
	}
}

func TestMachinesRunATask(t *testing.T) {
	for _, mk := range []MemKind{SharedMem, SharedMemCoherent, DistributedMem} {
		for _, st := range []Style{Uniform, Polymorphic, Clustered4} {
			m := Default(16)
			m.Mem = mk
			m.Style = st
			m.Seed = 3
			k, r, err := m.Build()
			if err != nil {
				t.Fatal(err)
			}
			ran := 0
			res, err := r.Run("root", func(e *core.Env) {
				g := r.NewGroup()
				for i := 0; i < 8; i++ {
					r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
						ce.ComputeCycles(100)
						ce.Read(64, 8, 8)
						ran++
					})
				}
				r.Join(e, g)
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", st, mk, err)
			}
			if ran != 8 || res.FinalVT <= 0 {
				t.Errorf("%s/%s: ran=%d vt=%v", st, mk, ran, res.FinalVT)
			}
			_ = k
		}
	}
}

func TestCycleLevelMachine(t *testing.T) {
	m := Default(8)
	m.Policy = "cyclelevel"
	m.Seed = 9
	_, r, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("root", func(e *core.Env) {
		e.ComputeCycles(100)
		e.Read(0, 16, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVT < vtime.CyclesInt(100) {
		t.Errorf("FinalVT = %v", res.FinalVT)
	}
}
