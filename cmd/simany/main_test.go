package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-bench", "octree", "-cores", "8", "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerboseDistributed(t *testing.T) {
	err := run([]string{"-bench", "spmxv", "-cores", "8", "-mem", "distributed",
		"-scale", "0.1", "-v"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunStylesAndPolicies(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "octree", "-cores", "8", "-style", "polymorphic", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "8", "-style", "clustered4", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "4", "-policy", "quantum:50", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "4", "-policy", "unbounded", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "4", "-mem", "coherent", "-scale", "0.1"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "nope"},
		{"-bench", "octree", "-style", "weird"},
		{"-bench", "octree", "-mem", "weird"},
		{"-bench", "octree", "-cores", "4", "-policy", "wat"},
		{"-machine", "/nonexistent/machine.conf"},
		{"-bench", "octree", "-cores", "4", "-T", "-5"},
		{"-bench", "octree", "-cores", "4", "-sched", "scan"}, // retired flag
		{"-bench", "octree", "-cores", "4", "-eff", "eager"},  // retired flag
		// A checkpoint position the run never reaches: no file, so no success.
		{"-bench", "octree", "-cores", "4", "-scale", "0.1",
			"-checkpoint", filepath.Join(t.TempDir(), "never.ck"), "-checkpoint-after", "100000000"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("no error for %v", args)
		}
	}
}

func TestRunTraceAndTimeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.txt")
	err := run([]string{"-bench", "octree", "-cores", "4", "-scale", "0.1",
		"-trace", tracePath, "-timeline"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "task-start") {
		t.Error("trace file missing events")
	}
}

func TestRunMachineFile(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.conf")
	if err := os.WriteFile(mPath, []byte("cores 8\nmem distributed\nT 50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "octree", "-machine", mPath, "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShardedTraceMetricsChrome(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	err := run([]string{"-bench", "octree", "-cores", "8", "-scale", "0.1",
		"-shards", "2", "-workers", "2",
		"-trace", jsonPath, "-metrics", metricsPath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Error(".json trace is not in Chrome trace_event format")
	}
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net.msg.latency", "shard.barrier.count"} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics output missing %q:\n%s", want, mdata)
		}
	}
}

func TestRunPprof(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "cpu.pprof")
	if err := run([]string{"-bench", "octree", "-cores", "4", "-scale", "0.1",
		"-pprof", p}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(p); err != nil || st.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
}

// TestRunCheckpointChain drives -checkpoint/-resume through two links: a
// resumed run must still honour its own -checkpoint, the second file must
// resume to a correct run, and a resume under flags the fingerprint does
// not cover must fail saying so, not blaming determinism alone.
func TestRunCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ck"), filepath.Join(dir, "b.ck")
	base := []string{"-bench", "quicksort", "-cores", "16", "-scale", "0.1"}
	with := func(extra ...string) []string { return append(append([]string(nil), base...), extra...) }

	if err := run(with("-checkpoint", a, "-checkpoint-after", "40")); err != nil {
		t.Fatal(err)
	}
	if err := run(with("-resume", a, "-checkpoint", b, "-checkpoint-after", "110")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(b); err != nil {
		t.Fatalf("resumed run did not write its own checkpoint: %v", err)
	}
	// run fails when the simulated output differs from the native one.
	if err := run(with("-resume", b)); err != nil {
		t.Fatalf("resuming the second checkpoint: %v", err)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{with("-resume", b, "-checkpoint", a, "-checkpoint-after", "110"), "not beyond"},
		{[]string{"-bench", "dijkstra", "-cores", "16", "-scale", "0.1", "-resume", a}, "fingerprint does not cover"},
		{[]string{"-bench", "quicksort", "-cores", "16", "-scale", "0.3", "-resume", a}, "fingerprint does not cover"},
		{with("-mem", "distributed", "-resume", a), "fingerprint does not cover"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
