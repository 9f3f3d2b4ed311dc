package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateKinds(t *testing.T) {
	for _, kind := range []string{"mesh", "torus", "ring", "star", "full", "clustered4", "clustered8"} {
		topo, err := generate(kind, 16)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if topo.N() != 16 || !topo.Connected() {
			t.Errorf("%s: malformed topology", kind)
		}
	}
	if _, err := generate("blob", 8); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRunGenAndInfo(t *testing.T) {
	// -gen writes to stdout; redirect it to a file, then -info reads it.
	dir := t.TempDir()
	path := filepath.Join(dir, "m.topo")
	old := os.Stdout
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	genErr := run([]string{"-gen", "clustered4", "-cores", "64"})
	os.Stdout = old
	f.Close()
	if genErr != nil {
		t.Fatal(genErr)
	}
	if err := run([]string{"-info", path}); err != nil {
		t.Fatal(err)
	}
}

// TestInfoDisconnected: simany refuses a disconnected adjacency file, but
// simany-topo must still load it and say it is disconnected.
func TestInfoDisconnected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "disc.adj")
	if err := os.WriteFile(path, []byte("cores 4\nlink 0 1\nlink 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	runErr := run([]string{"-info", path})
	os.Stdout = old
	out.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "connected  false") {
		t.Errorf("report does not say disconnected:\n%s", report)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no mode should error")
	}
	if err := run([]string{"-gen", "nope"}); err == nil {
		t.Error("bad kind should error")
	}
	if err := run([]string{"-info", "/nonexistent.topo"}); err == nil {
		t.Error("missing file should error")
	}
}
