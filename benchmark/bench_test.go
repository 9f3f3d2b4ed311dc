package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runTiny runs every workload at toy size and returns the result file.
func runTiny(t *testing.T, extra ...string) resultFile {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	args := append([]string{"-tiny", "-reps", "1", "-out", out, "-tracefile", filepath.Join(dir, "trace.json")}, extra...)
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := readJSON(out, &file); err != nil {
		t.Fatal(err)
	}
	return file
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts that each workload emitted exactly the manifest's
// metrics, every one with a unit and a well-formed name, and failed nothing.
func checkEmitted(t *testing.T, file resultFile, want []manifestMetric, workloadNames []string) {
	t.Helper()
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("ran %d workloads, BENCHMARK.json lists %d", len(file.Workloads), len(workloadNames))
	}
	for i, r := range file.Workloads {
		if r.Workload != workloadNames[i] {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, r.Workload, workloadNames[i])
		}
		if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: %d of %d simulations failed: %v", r.Workload, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range want {
			v, ok := r.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %q of BENCHMARK.json is not emitted", r.Workload, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: metric %q has unit %q, BENCHMARK.json says %q", r.Workload, m.Name, v.Unit, m.Unit)
			}
		}
		for name, v := range r.Metrics {
			if !metricName.MatchString(name) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", r.Workload, name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %q is %v", r.Workload, name, v.Value)
			}
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json lists %d", r.Workload, len(r.Metrics), len(want))
		}
	}
}

func manifestWorkloads(m manifest) []string {
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// TestSmokePlain keeps the benchmark compiling against internal-API drift
// and pins the tiny workloads' simulated statistics to the golden file.
func TestSmokePlain(t *testing.T) {
	m := readManifest(t)
	file := runTiny(t)
	checkEmitted(t, file, m.EndToEnd, manifestWorkloads(m))
	for _, r := range file.Workloads {
		for _, mm := range m.EndToEnd {
			if r.Metrics[mm.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %q is %v, must never be 0", r.Workload, mm.Name, r.Metrics[mm.Name].Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	m := readManifest(t)
	checkEmitted(t, runTiny(t, "-traced"), m.PerLayer, manifestWorkloads(m))
}

// TestManifestWhy keeps the one-line reasons in BENCHMARK.json and in the
// program the same text.
func TestManifestWhy(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, the program %q: %q",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestDriverLine checks the last line of the single-workload form.
func TestDriverLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "spawn-storm", "--seed", "7", "--seconds", "0.05", "--trace", "0", "-tiny"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("driver line lacks %q", key)
		}
	}
	if len(line) != 4 {
		t.Errorf("driver line has %d keys, want exactly 4", len(line))
	}
}

// TestGoldenCatchesDrift shows the golden check is live: a fingerprint that
// differs from the checked-in one fails the simulation.
func TestGoldenCatchesDrift(t *testing.T) {
	golden, err := loadGolden(tinySizes.name)
	if err != nil {
		t.Fatal(err)
	}
	bad := goldenSet{}
	for k, fp := range golden {
		fp.Steps++
		bad[k] = fp
	}
	w, _ := workloadByName("spawn-storm")
	r := runWorkload(w, options{sz: tinySizes, seed: goldenSeed, reps: 1, golden: bad}, nil, goldenSet{})
	if r.Correct || r.Failed == 0 {
		t.Fatalf("a drifted golden fingerprint passed: %+v", r)
	}
}

// TestCPUShares profiles a run long enough to be sampled and checks the
// attribution: shares sum to 1 and little is left unexplained.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	s := treeSim("mesh:8x8", 13, 1, 1)
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		if res := runSim(s, nil, variant{}); res.failure != "" {
			pprof.StopCPUProfile()
			t.Fatal(res.failure)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for b, v := range shares {
		known := false
		for _, name := range cpuBuckets {
			known = known || name == b
		}
		if !known {
			t.Errorf("unknown bucket %q", b)
		}
		sum += v
	}
	if len(shares) == 0 {
		t.Skip("the profiler took no sample")
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if raceEnabled {
		return
	}
	if shares["other"] >= 0.15 {
		t.Errorf("other = %v, want < 0.15: %v", shares["other"], shares)
	}
	if shares["core"]+shares["rt"]+shares["runtime_sched"] < 0.3 {
		t.Errorf("a spawn tree should spend its time in core, rt and the Go scheduler: %v", shares)
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

// TestSpreadMatchesPython pins the quartile rule to the one the driver
// uses: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.beginSim("sim")
	tr.span("child", func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	self := tr.selfSince(0)
	total := tr.spans[0].end - tr.spans[0].start
	if self["sim"]+self["child"] != total {
		t.Errorf("self times %v do not add up to the root span %v", self, total)
	}
	if self["child"] < 2*time.Millisecond || tr.spans[1].parent != 0 || tr.spans[1].sim != tr.spans[0].sim {
		t.Errorf("child span wrong: %+v", tr.spans[1])
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64) string {
		r := &report{Workload: "w", Metrics: map[string]value{}}
		r.set("sim_wall_s", "s", wall...)
		data, err := json.Marshal(resultFile{Workloads: []*report{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	man := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(man, []byte(`{"end_to_end":[{"name":"sim_wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.json", []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	cases := []struct {
		name    string
		wall    []float64
		verdict string
		fails   bool
	}{
		{"same.json", []float64{1.03, 1.04, 1.02, 1.03, 1.05}, "ok", false},
		{"slow.json", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse", true},
		{"noisy.json", []float64{0.8, 1.3, 1.0, 1.6, 0.7}, "unresolved", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := compareFiles(&out, man, base, write(c.name, c.wall))
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in:\n%s", c.name, c.verdict, out.String())
		}
	}
}
