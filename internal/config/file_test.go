package config

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simany/internal/vtime"
)

func TestParseMachineFull(t *testing.T) {
	src := `# test machine
cores 256
style clustered4
mem distributed
policy quantum:50
T 200
seed 9
speedaware on
`
	m, err := ParseMachine(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores != 256 || m.Style != Clustered4 || m.Mem != DistributedMem {
		t.Errorf("machine = %+v", m)
	}
	if m.Policy != "quantum:50" || m.T != vtime.CyclesInt(200) || m.Seed != 9 || !m.SpeedAwareRT {
		t.Errorf("machine = %+v", m)
	}
	if _, _, err := m.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMachineDefaults(t *testing.T) {
	m, err := ParseMachine(strings.NewReader("cores 8\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.T != vtime.CyclesInt(100) || m.Style != Uniform || m.Mem != SharedMem {
		t.Errorf("defaults wrong: %+v", m)
	}
}

func TestParseMachineErrors(t *testing.T) {
	bad := []string{
		"",                     // neither cores nor topology
		"cores zero\n",         // bad number
		"cores -1\n",           // non-positive
		"cores 4\nstyle wat\n", // unknown style
		"cores 4\nmem wat\n",   // unknown mem
		"cores 4\nT -5\n",      // bad T
		"cores 4\nT 0\n",
		"cores 4\nT 0.0001\n", // rounds to 0: used to become the default 100
		"cores 4\nT nan\n",
		"cores 4\ntopo mesh:0\n",
		"cores 4\ntopo chiplet:2x2@nan\n",
		"cores 4\nseed x\n", // bad seed
		"cores 4\nspeedaware maybe\n",
		"cores 4\nfrobnicate 7\n",    // unknown key
		"cores\n",                    // missing value
		"cores 4\ntopology t.topo\n", // references forbidden with nil resolver
	}
	for _, src := range bad {
		if _, err := ParseMachine(strings.NewReader(src), nil); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseMachineTopologyReference(t *testing.T) {
	topoSrc := "cores 3\nlink 0 1\nlink 1 2\n"
	resolve := func(path string) (io.ReadCloser, error) {
		if path != "net.topo" {
			t.Fatalf("unexpected ref %q", path)
		}
		return io.NopCloser(strings.NewReader(topoSrc)), nil
	}
	m, err := ParseMachine(strings.NewReader("topology net.topo\nmem shared\n"), resolve)
	if err != nil {
		t.Fatal(err)
	}
	if m.Topo == nil || m.Topo.N() != 3 {
		t.Fatal("topology reference not loaded")
	}
	k, _, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.NumCores() != 3 {
		t.Errorf("cores = %d", k.NumCores())
	}
}

func TestLoadMachineFile(t *testing.T) {
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "ring.topo")
	if err := os.WriteFile(topoPath, []byte("cores 4\nlink 0 1\nlink 1 2\nlink 2 3\nlink 3 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mPath := filepath.Join(dir, "machine.conf")
	if err := os.WriteFile(mPath, []byte("topology ring.topo\nmem coherent\nT 50 # tight\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMachineFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Topo == nil || m.Topo.N() != 4 || m.Mem != SharedMemCoherent || m.T != vtime.CyclesInt(50) {
		t.Errorf("machine = %+v", m)
	}
	if _, err := LoadMachineFile(filepath.Join(dir, "missing.conf")); err == nil {
		t.Error("missing file must error")
	}
	// Broken topology reference.
	bad := filepath.Join(dir, "bad.conf")
	os.WriteFile(bad, []byte("topology nope.topo\n"), 0o644)
	if _, err := LoadMachineFile(bad); err == nil {
		t.Error("broken reference must error")
	}
}

func TestWriteMachineRoundTrip(t *testing.T) {
	orig := Machine{
		Cores: 64, Style: Polymorphic, Mem: DistributedMem,
		Policy: "laxp2p:80", T: vtime.CyclesInt(150), Seed: 3, SpeedAwareRT: true,
	}
	var buf bytes.Buffer
	if err := WriteMachine(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseMachine(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cores != orig.Cores || back.Style != orig.Style || back.Mem != orig.Mem ||
		back.Policy != orig.Policy || back.T != orig.T || back.Seed != orig.Seed ||
		back.SpeedAwareRT != orig.SpeedAwareRT {
		t.Errorf("round trip changed machine: %+v vs %+v", back, orig)
	}
	// Zero-valued machine gets defaults on write.
	buf.Reset()
	if err := WriteMachine(&buf, Machine{Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "policy spatial") || !strings.Contains(buf.String(), "T 100") {
		t.Errorf("defaults not serialized:\n%s", buf.String())
	}
}
