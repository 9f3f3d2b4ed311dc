package main

import (
	"bytes"
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

// TestRunRejectsBadPolicyCycles covers policy arguments that used to run:
// quantum:0.0001 rounded to a zero quantum and panicked dividing by it, and
// quantum:nan simulated to a false deadlock. Both must fail with an error
// that names the argument.
func TestRunRejectsBadPolicyCycles(t *testing.T) {
	for _, policy := range []string{"quantum:0.0001", "quantum:nan"} {
		err := run([]string{"-bench", "octree", "-cores", "4", "-scale", "0.1", "-policy", policy})
		if err == nil || !strings.Contains(err.Error(), policy) {
			t.Errorf("-policy %s: error %v, want one naming the argument", policy, err)
		}
	}
}

// TestRunRejectsBadT covers -T values that used to misbehave: 1e20 and NaN
// overflowed into a "negative drift bound" error, 1e-9 and -0.0001 rounded
// to zero and silently ran at the default T. Each must fail with an error
// that names the argument.
func TestRunRejectsBadT(t *testing.T) {
	for _, v := range []string{"1e20", "NaN", "1e-9", "-0.0001"} {
		err := run([]string{"-bench", "octree", "-cores", "4", "-scale", "0.1", "-T", v})
		if err == nil || !strings.Contains(err.Error(), `"`+v+`"`) {
			t.Errorf("-T %s: error %v, want one naming the argument", v, err)
		}
	}
}

// TestRunRejectsNegativeShardsAndWorkers: -shards -3 used to run on the
// sequential engine without a word and -workers -2 on every CPU. Both must
// fail with an error naming the field, from the flags and with a machine
// file alike.
func TestRunRejectsNegativeShardsAndWorkers(t *testing.T) {
	mPath := filepath.Join(t.TempDir(), "m.conf")
	if err := os.WriteFile(mPath, []byte("cores 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "octree", "-cores", "8", "-scale", "0.1", "-shards", "-3"}, "Shards = -3"},
		{[]string{"-bench", "octree", "-cores", "8", "-scale", "0.1", "-shards", "2", "-workers", "-2"}, "Workers = -2"},
		{[]string{"-bench", "octree", "-machine", mPath, "-scale", "0.1", "-shards", "-3"}, "Shards = -3"},
		{[]string{"-bench", "octree", "-machine", mPath, "-scale", "0.1", "-workers", "-2"}, "Workers = -2"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestRunRefusesUnrunnableShards: a -shards request the engine cannot
// honour is an error naming the cause. Under a global policy it used to
// run sequentially behind a stderr notice, and above the core count it
// used to be clamped.
func TestRunRefusesUnrunnableShards(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-bench", "octree", "-cores", "8", "-scale", "0.1", "-shards", "4", "-policy", "quantum"}, []string{"Shards = 4", `policy "quantum"`}},
		{[]string{"-bench", "octree", "-cores", "8", "-scale", "0.1", "-shards", "16"}, []string{"Shards = 16", "8 cores"}},
	} {
		err := run(tc.args)
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%v: err = %v, want one naming %q", tc.args, err, w)
			}
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

// TestRunDisconnectedMachineFile: a machine file whose adjacency file has
// two components used to panic inside the network model; it must fail with
// an error naming a core that cannot be reached.
func TestRunDisconnectedMachineFile(t *testing.T) {
	dir := t.TempDir()
	adj := "cores 4\nlink 0 1\nlink 2 3\n"
	if err := os.WriteFile(filepath.Join(dir, "disc.adj"), []byte(adj), 0o644); err != nil {
		t.Fatal(err)
	}
	mPath := filepath.Join(dir, "m.conf")
	if err := os.WriteFile(mPath, []byte("topology disc.adj\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-bench", "octree", "-machine", mPath, "-scale", "0.1"})
	if err == nil || !strings.Contains(err.Error(), "disconnected") || !strings.Contains(err.Error(), "core 2") {
		t.Fatalf("err = %v, want a disconnected-topology error naming core 2", err)
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

// TestRunCheckpointWritesOutputs: a run that stops at -checkpoint still
// writes the -trace and -metrics files it was given (it used to return
// after the checkpoint and write neither), and its trace followed by the
// resumed run's equals the uninterrupted run's trace byte for byte.
func TestRunCheckpointWritesOutputs(t *testing.T) {
	for _, shards := range []string{"1", "4"} {
		dir := t.TempDir()
		path := func(name string) string { return filepath.Join(dir, name) }
		base := []string{"-bench", "conncomp", "-cores", "64", "-shards", shards, "-workers", "1"}
		with := func(extra ...string) []string { return append(append([]string(nil), base...), extra...) }

		if err := run(with("-trace", path("full.txt"))); err != nil {
			t.Fatal(err)
		}
		if err := run(with("-trace", path("pre.txt"), "-metrics", path("pre.met"),
			"-checkpoint", path("a.ck"), "-checkpoint-after", "4000")); err != nil {
			t.Fatal(err)
		}
		if err := run(with("-trace", path("post.txt"), "-resume", path("a.ck"))); err != nil {
			t.Fatal(err)
		}
		read := func(name string) []byte {
			data, err := os.ReadFile(path(name))
			if err != nil {
				t.Fatalf("shards %s: %v", shards, err)
			}
			return data
		}
		if len(read("pre.met")) == 0 {
			t.Errorf("shards %s: the checkpoint run wrote an empty metrics file", shards)
		}
		full, joined := read("full.txt"), append(read("pre.txt"), read("post.txt")...)
		if !bytes.Equal(joined, full) {
			t.Errorf("shards %s: checkpoint trace + resumed trace (%d bytes) differs from the uninterrupted trace (%d bytes)",
				shards, len(joined), len(full))
		}
	}
}

// TestVerboseMatchesMetrics: every counter -v prints is read from the
// registry -metrics dumps, so the two must agree on all six benchmarks,
// both memories, sequential and sharded: messages, bytes, hops,
// out-of-order deliveries, stalls, instructions, each task-runtime field,
// per-shard steps and the busiest core's task starts.
func TestVerboseMatchesMetrics(t *testing.T) {
	rtNames := map[string]string{
		"Spawns": "rt.spawns", "Probes": "rt.probes", "Denied": "rt.denied",
		"LocalRuns": "rt.local.runs", "Migrations": "rt.migrations",
		"DataReqs": "rt.data.reqs", "DataChases": "rt.data.chases", "JoinWaits": "rt.join.waits",
	}
	for _, b := range []string{"quicksort", "conncomp", "dijkstra", "barnes-hut", "spmxv", "octree"} {
		for _, memKind := range []string{"shared", "distributed"} {
			for _, shards := range []string{"1", "4"} {
				name := b + "/" + memKind + "/shards" + shards
				out := captureStdout(t, func() error {
					return run([]string{"-bench", b, "-cores", "16", "-scale", "0.1", "-mem", memKind,
						"-shards", shards, "-v", "-metrics", "-"})
				})
				v, m := verboseFields(t, out), metricsFields(out)
				want := map[string]string{
					"messages": m["net.msgs"], "bytes": m["net.bytes"], "hops": m["net.hops"],
					"ooo": m["core.msgs.ooo"], "stalls": m["core.stalls"],
					"instructions": m["core.instructions"], "steps": m["core.steps"],
					"busiest": m["core.task.starts max"], "busiest core": m["core.task.starts at"],
				}
				for field, reg := range rtNames {
					want[field] = m[reg]
				}
				if shards != "1" {
					want["per-shard steps"] = m["core.steps per-shard"]
				}
				for field, w := range want {
					if w == "" || v[field] != w {
						t.Errorf("%s: -v %s = %q, -metrics %q", name, field, v[field], w)
					}
				}
			}
		}
	}
}

// captureStdout runs fn with os.Stdout sent to a file and returns what it
// wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// verboseFields parses the counters out of simany -v's report.
func verboseFields(t *testing.T, out string) map[string]string {
	t.Helper()
	v := map[string]string{}
	var perShard []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "kernel steps "):
			v["steps"] = f[2]
		case strings.HasPrefix(line, "messages "):
			// messages N (B bytes, H hops, O handled out of order)
			v["messages"], v["bytes"], v["hops"], v["ooo"] = f[1], strings.TrimPrefix(f[2], "("), f[4], f[6]
		case strings.HasPrefix(line, "policy stalls "):
			v["stalls"] = f[2]
		case strings.HasPrefix(line, "instructions "):
			v["instructions"] = f[1]
		case strings.HasPrefix(line, "task runtime "):
			// task runtime {Spawns:1 Probes:2 ...}
			for _, kv := range strings.Fields(strings.Trim(strings.Join(f[2:], " "), "{}")) {
				name, val, _ := strings.Cut(kv, ":")
				v[name] = val
			}
		case strings.HasPrefix(line, "  shard "):
			perShard = append(perShard, f[4])
		case strings.HasPrefix(line, "busiest core "):
			v["busiest core"], v["busiest"] = f[2], strings.TrimPrefix(f[3], "(")
		}
	}
	if len(perShard) > 0 {
		v["per-shard steps"] = "[" + strings.Join(perShard, " ") + "]"
	}
	if len(v) == 0 {
		t.Fatalf("no -v report in:\n%s", out)
	}
	return v
}

// metricsFields parses the counter and vector lines of a -metrics dump:
// name → total, "name per-shard" → the stripe list, "name max" and
// "name at" → a vector's busiest core.
func metricsFields(out string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.Contains(f[0], ".") || strings.HasPrefix(f[1], "count=") {
			continue
		}
		m[f[0]] = f[1]
		if i := strings.Index(line, "per-shard "); i >= 0 {
			m[f[0]+" per-shard"] = line[i+len("per-shard "):]
		}
		if len(f) == 6 && f[2] == "max" { // name total max M (core i)
			m[f[0]+" max"], m[f[0]+" at"] = f[3], strings.TrimSuffix(f[5], ")")
		}
	}
	return m
}
