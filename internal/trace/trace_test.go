package trace

import (
	"bytes"
	"strings"
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/network"
	"simany/internal/rt"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// tracedRun executes a small fork/join program with tracing enabled.
func tracedRun(t *testing.T, limit int) (*Recorder, core.Result, *core.Kernel) {
	t.Helper()
	rec := NewRecorder(limit)
	k := core.New(core.Config{
		Topo:   topology.Mesh(4),
		Mem:    mem.NewShared(),
		Seed:   3,
		Tracer: rec,
	})
	r := rt.New(k, nil, rt.DefaultOptions())
	res, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 6; i++ {
			r.SpawnOrRun(e, g, "child", 0, func(ce *core.Env) {
				ce.ComputeCycles(500)
			})
		}
		r.Join(e, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec, res, k
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	rec, _, _ := tracedRun(t, 0)
	kinds := map[core.TraceKind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []core.TraceKind{
		core.TraceTaskStart, core.TraceTaskEnd, core.TraceSend, core.TraceHandle,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events", want)
		}
	}
	// Starts and ends must balance (root + children all finished).
	if kinds[core.TraceTaskStart]+kinds[core.TraceTaskResume] < kinds[core.TraceTaskEnd] {
		t.Errorf("unbalanced lifecycle: %v", kinds)
	}
	// Sequence numbers strictly increase.
	var last uint64
	for _, ev := range rec.Events() {
		if ev.Seq <= last {
			t.Fatal("sequence numbers not increasing")
		}
		last = ev.Seq
	}
}

func TestRecorderLimit(t *testing.T) {
	rec, _, _ := tracedRun(t, 5)
	if len(rec.Events()) != 5 {
		t.Errorf("retained %d events, limit 5", len(rec.Events()))
	}
	if rec.Dropped() == 0 {
		t.Error("expected drops")
	}
	var buf bytes.Buffer
	if err := rec.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped") {
		t.Error("drop notice missing")
	}
}

func TestWriteText(t *testing.T) {
	rec, _, _ := tracedRun(t, 0)
	var buf bytes.Buffer
	if err := rec.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"task-start", "task-end", "send", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace text missing %q", want)
		}
	}
}

func TestUtilization(t *testing.T) {
	rec, res, k := tracedRun(t, 0)
	util := Utilization(rec.Events(), k.NumCores(), res.FinalVT)
	if len(util) != 4 {
		t.Fatalf("util = %v", util)
	}
	var total float64
	for _, u := range util {
		if u < 0 || u > 1 {
			t.Errorf("utilization out of range: %v", util)
		}
		total += u
	}
	if total == 0 {
		t.Error("nobody did any work")
	}
	// Core 0 hosted the root task: it must show activity.
	if util[0] == 0 {
		t.Error("root core shows no activity")
	}
}

func TestUtilizationEdgeCases(t *testing.T) {
	if got := Utilization(nil, 2, 0); got[0] != 0 || got[1] != 0 {
		t.Error("zero end time should give zero utilization")
	}
	// Synthetic: one span covering half the time on core 1.
	evs := []core.TraceEvent{
		{Seq: 1, Kind: core.TraceTaskStart, Core: 1, VT: 0},
		{Seq: 2, Kind: core.TraceTaskEnd, Core: 1, VT: vtime.CyclesInt(50)},
	}
	util := Utilization(evs, 2, vtime.CyclesInt(100))
	if util[1] != 0.5 || util[0] != 0 {
		t.Errorf("util = %v", util)
	}
}

func TestStallKeepsSpanOpen(t *testing.T) {
	// start -> stall -> (resume implied) -> end must count the whole span.
	evs := []core.TraceEvent{
		{Seq: 1, Kind: core.TraceTaskStart, Core: 0, VT: 0},
		{Seq: 2, Kind: core.TraceTaskStall, Core: 0, VT: vtime.CyclesInt(30)},
		{Seq: 3, Kind: core.TraceTaskEnd, Core: 0, VT: vtime.CyclesInt(100)},
	}
	util := Utilization(evs, 1, vtime.CyclesInt(100))
	if util[0] != 1.0 {
		t.Errorf("stall broke the busy span: %v", util)
	}
}

func TestTimeline(t *testing.T) {
	rec, res, k := tracedRun(t, 0)
	var buf bytes.Buffer
	if err := Timeline(&buf, rec.Events(), k.NumCores(), res.FinalVT, 40); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("timeline lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "#") {
		t.Error("root core timeline empty")
	}
	if !strings.Contains(lines[0], "%") {
		t.Error("utilization column missing")
	}
	// Default width path.
	var buf2 bytes.Buffer
	if err := Timeline(&buf2, rec.Events(), 1, res.FinalVT, 0); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSpanClosedAtEnd(t *testing.T) {
	// Regression: a task still running when the stream ends used to drop
	// its final span entirely, under-reporting utilization.
	evs := []core.TraceEvent{
		{Seq: 1, Kind: core.TraceTaskStart, Core: 0, VT: 0},
		{Seq: 2, Kind: core.TraceTaskEnd, Core: 0, VT: vtime.CyclesInt(20)},
		{Seq: 3, Kind: core.TraceTaskStart, Core: 1, VT: vtime.CyclesInt(50)},
		// Core 1's task never ends within the stream.
	}
	util := Utilization(evs, 2, vtime.CyclesInt(100))
	if util[0] != 0.2 {
		t.Errorf("closed span miscounted: %v", util)
	}
	if util[1] != 0.5 {
		t.Errorf("open span not closed at endVT: %v", util)
	}
	// A stall as the final event keeps the core busy to the end too.
	evs = []core.TraceEvent{
		{Seq: 1, Kind: core.TraceTaskStart, Core: 0, VT: 0},
		{Seq: 2, Kind: core.TraceTaskStall, Core: 0, VT: vtime.CyclesInt(40)},
	}
	util = Utilization(evs, 1, vtime.CyclesInt(100))
	if util[0] != 1.0 {
		t.Errorf("trailing stall lost the tail span: %v", util)
	}
}

func TestOutOfRangeCoreGuard(t *testing.T) {
	// Events attributed to cores outside [0, numCores) must not panic or
	// corrupt neighbors' accounting.
	evs := []core.TraceEvent{
		{Seq: 1, Kind: core.TraceTaskStart, Core: -1, VT: 0},
		{Seq: 2, Kind: core.TraceTaskEnd, Core: -1, VT: vtime.CyclesInt(10)},
		{Seq: 3, Kind: core.TraceTaskStart, Core: 7, VT: 0},
		{Seq: 4, Kind: core.TraceTaskEnd, Core: 7, VT: vtime.CyclesInt(10)},
		{Seq: 5, Kind: core.TraceTaskStart, Core: 0, VT: 0},
		{Seq: 6, Kind: core.TraceTaskEnd, Core: 0, VT: vtime.CyclesInt(50)},
	}
	end := vtime.CyclesInt(100)
	util := Utilization(evs, 2, end)
	if util[0] != 0.5 || util[1] != 0 {
		t.Errorf("out-of-range events perturbed utilization: %v", util)
	}
	var buf bytes.Buffer
	if err := Timeline(&buf, evs, 2, end, 20); err != nil {
		t.Fatal(err)
	}
	anoms := Anomalies(evs, 2, end)
	if len(anoms) != 2 {
		t.Fatalf("anomalies = %v", anoms)
	}
	for _, a := range anoms {
		if !strings.Contains(a, "out-of-range") {
			t.Errorf("unexpected anomaly: %q", a)
		}
	}
}

func TestOverUtilizationSurfaced(t *testing.T) {
	// Two overlapping spans on one core: busy time exceeds the duration.
	// The old code clamped this to 100%; it must now be visible.
	evs := []core.TraceEvent{
		{Seq: 1, Kind: core.TraceTaskStart, Core: 0, VT: 0},
		{Seq: 2, Kind: core.TraceTaskEnd, Core: 0, VT: vtime.CyclesInt(80)},
		{Seq: 3, Kind: core.TraceTaskStart, Core: 0, VT: vtime.CyclesInt(20)},
		{Seq: 4, Kind: core.TraceTaskEnd, Core: 0, VT: vtime.CyclesInt(90)},
	}
	end := vtime.CyclesInt(100)
	util := Utilization(evs, 1, end)
	if util[0] <= 1 {
		t.Errorf("over-utilization clamped: %v", util)
	}
	anoms := Anomalies(evs, 1, end)
	if len(anoms) != 1 || !strings.Contains(anoms[0], "exceeds simulated duration") {
		t.Errorf("anomaly not surfaced: %v", anoms)
	}
	var buf bytes.Buffer
	if err := Timeline(&buf, evs, 1, end, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "!") {
		t.Error("timeline missing over-utilization marker")
	}
	// A clean trace reports nothing.
	if got := Anomalies(evs[:2], 1, end); len(got) != 0 {
		t.Errorf("false anomalies: %v", got)
	}
}

func TestTruncated(t *testing.T) {
	full, _, _ := tracedRun(t, 0)
	if full.Truncated() {
		t.Error("unlimited recorder reports truncation")
	}
	lim, _, _ := tracedRun(t, 5)
	if !lim.Truncated() {
		t.Error("limited recorder with drops must report truncation")
	}
}

func TestTracerViaSetTracer(t *testing.T) {
	k := core.New(core.Config{Topo: topology.Mesh(1), Seed: 1})
	rec := NewRecorder(0)
	k.SetTracer(rec)
	k.InjectTask(0, "w", func(e *core.Env) { e.ComputeCycles(10) }, nil, 0)
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Error("SetTracer did not take effect")
	}
	k.SetTracer(nil) // must not panic on further activity
	_ = network.Message{}
}
