package bench

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/metrics"
	"simany/internal/rt"
	"simany/internal/snap"
	"simany/internal/topology"
	"simany/internal/trace"
)

// obsRun bundles a kernel with full observability attached (trace
// recorder + metrics registry) and its runtime — the configuration the
// checkpoint contract is stated against: checkpoint at a barrier plus
// resume must be indistinguishable from an uninterrupted run in Result,
// trace stream, metrics state and benchmark checksum.
type obsRun struct {
	k   *core.Kernel
	r   *rt.Runtime
	rec *trace.Recorder
	reg *metrics.Registry
}

func newObsRun(shards, workers int, seed int64) *obsRun {
	rec := trace.NewRecorder(0)
	reg := metrics.New()
	k := core.New(core.Config{
		Topo:    topology.Mesh(16),
		Policy:  core.Spatial{T: core.DefaultT},
		Mem:     mem.NewShared(),
		Seed:    seed,
		Shards:  shards,
		Workers: workers,
		Tracer:  rec,
		Metrics: reg,
	})
	return &obsRun{k: k, r: rt.New(k, nil, rt.DefaultOptions()), rec: rec, reg: reg}
}

// firstDiff pinpoints the first line where two texts diverge.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "texts equal"
}

func metricsText(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return b.String()
}

// TestCheckpointRoundTrip is the checkpoint contract applied to every
// bundled benchmark at two shard counts: run to a mid-run barrier,
// checkpoint, restore into a fresh kernel, continue — the spliced
// (prefix + resumed) trace, the final metrics text, the Result and the
// computation checksum must all be identical to an uninterrupted run.
// The every-barrier leg repeats that at each barrier of one short sharded
// run, whatever mix of stalled, probe-waiting, join-waiting and unstarted
// tasks a barrier happens to catch.
func TestCheckpointRoundTrip(t *testing.T) {
	const seed = 42
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			b.Generate(seed, 0.3)
			want := b.RunNative()
			for _, shards := range []int{1, 4} {
				ref := referenceRun(t, b, shards, seed, want)
				checkRoundTripAt(t, b, shards, seed, want, ref, ref.finalPos/2)
			}
		})
	}
	t.Run("every-barrier", func(t *testing.T) {
		// conncomp: denied probes, inline fallbacks, locks and joins in
		// about a hundred barriers at this scale.
		b, err := ByName("conncomp")
		if err != nil {
			t.Fatal(err)
		}
		b.Generate(seed, 0.05)
		want := b.RunNative()
		ref := referenceRun(t, b, 4, seed, want)
		// Positions count steps; the sharded engine pauses at the first
		// barrier that reaches one, so the step after each pause is the
		// next barrier's first.
		for pos := int64(1); pos < ref.finalPos; {
			pos = checkRoundTripAt(t, b, 4, seed, want, ref, pos) + 1
		}
	})
}

// reference is what an uninterrupted run leaves behind.
type reference struct {
	res      core.Result
	events   []core.TraceEvent
	metrics  string
	finalPos int64
}

func referenceRun(t *testing.T, b Benchmark, shards int, seed int64, want uint64) reference {
	t.Helper()
	full := newObsRun(shards, 2, seed)
	root, finish := b.Program(full.r, Shared)
	res, err := full.r.Run(b.Name(), root)
	if err != nil {
		t.Fatalf("shards=%d: full run: %v", shards, err)
	}
	if got := finish(); got != want {
		t.Fatalf("shards=%d: full run checksum %#x, native %#x", shards, got, want)
	}
	ref := reference{res: res, events: full.rec.Events(), metrics: metricsText(t, full.reg), finalPos: full.k.Position()}
	if ref.finalPos < 2 {
		t.Fatalf("shards=%d: run too short to interrupt (position %d)", shards, ref.finalPos)
	}
	return ref
}

// checkRoundTripAt interrupts a run at position pos, checkpoints it,
// resumes the file in a fresh kernel and compares against ref. It returns
// the position the run paused at: pos itself on the sequential engine,
// the first barrier at or after it on the sharded one.
func checkRoundTripAt(t *testing.T, b Benchmark, shards int, seed int64, want uint64, ref reference, pos int64) int64 {
	t.Helper()

	// Interrupted run: pause at pos, checkpoint.
	intr := newObsRun(shards, 2, seed)
	root, _ := b.Program(intr.r, Shared)
	intr.k.PauseAfter(pos)
	if _, err := intr.r.Run(b.Name(), root); !errors.Is(err, core.ErrPaused) {
		t.Fatalf("shards=%d: expected ErrPaused at position %d, got %v", shards, pos, err)
	}
	at := intr.k.Position()
	if !intr.k.Paused() || at < pos || (shards == 1 && at != pos) {
		t.Fatalf("shards=%d: paused=%v position=%d, want paused at %d",
			shards, intr.k.Paused(), at, pos)
	}
	pos = at
	var buf bytes.Buffer
	if err := intr.k.Checkpoint(&buf); err != nil {
		t.Fatalf("shards=%d pos=%d: checkpoint: %v", shards, pos, err)
	}
	prefixEvents := intr.rec.Events()

	// The file must parse and identify itself.
	ck, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("shards=%d pos=%d: reading checkpoint back: %v", shards, pos, err)
	}
	if ck.Pos != pos {
		t.Fatalf("shards=%d: checkpoint position %d, want %d", shards, ck.Pos, pos)
	}

	// Resume into a fresh kernel and run to completion. Resume needs the
	// original program re-injected; Program is re-callable.
	res := newObsRun(shards, 2, seed)
	if err := res.k.ArmResume(ck); err != nil {
		t.Fatalf("shards=%d pos=%d: arming resume: %v", shards, pos, err)
	}
	root, finish := b.Program(res.r, Shared)
	resRes, err := res.r.Run(b.Name(), root)
	if err != nil {
		t.Fatalf("shards=%d pos=%d: resumed run: %v", shards, pos, err)
	}
	if got := finish(); got != want {
		t.Fatalf("shards=%d pos=%d: resumed checksum %#x, native %#x", shards, pos, got, want)
	}
	if !reflect.DeepEqual(resRes, ref.res) {
		t.Errorf("shards=%d pos=%d: resumed Result diverged:\n  got  %+v\n  want %+v", shards, pos, resRes, ref.res)
	}
	if got := metricsText(t, res.reg); got != ref.metrics {
		t.Errorf("shards=%d pos=%d: resumed metrics text diverged:\n%s", shards, pos, firstDiff(got, ref.metrics))
	}

	// Trace splice: prefix (up to the checkpoint barrier) + resumed stream
	// must equal the uninterrupted stream event for event.
	spliced := append(append([]core.TraceEvent(nil), prefixEvents...), res.rec.Events()...)
	if len(spliced) != len(ref.events) {
		t.Fatalf("shards=%d pos=%d: spliced trace has %d events, full run %d (prefix %d, resumed %d)",
			shards, pos, len(spliced), len(ref.events), len(prefixEvents), len(res.rec.Events()))
	}
	for i := range spliced {
		if spliced[i] != ref.events[i] {
			t.Fatalf("shards=%d pos=%d: trace diverged at event %d:\n  got  %+v\n  want %+v",
				shards, pos, i, spliced[i], ref.events[i])
		}
	}
	return pos
}

// TestCheckpointRejectsMismatchedConfig: a checkpoint must refuse to arm
// against a kernel whose configuration fingerprint differs.
func TestCheckpointRejectsMismatchedConfig(t *testing.T) {
	b, err := ByName("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	b.Generate(7, 0.2)
	run := newObsRun(4, 2, 7)
	root, _ := b.Program(run.r, Shared)
	run.k.PauseAfter(2)
	if _, err := run.r.Run(b.Name(), root); !errors.Is(err, core.ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	var buf bytes.Buffer
	if err := run.k.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other := newObsRun(4, 2, 8) // different seed -> different fingerprint
	if err := other.k.ArmResume(ck); err == nil {
		t.Fatal("ArmResume accepted a checkpoint from a different configuration")
	}
	seq := newObsRun(1, 1, 7) // same seed, different engine kind
	if err := seq.k.ArmResume(ck); err == nil {
		t.Fatal("ArmResume accepted a sharded checkpoint on the sequential engine")
	}
}

// TestCheckpointCorruptionDetected: every single-byte corruption of a real
// checkpoint file must be detected at read time (the trailing CRC), and
// truncations must never read successfully.
func TestCheckpointCorruptionDetected(t *testing.T) {
	b, err := ByName("spmxv")
	if err != nil {
		t.Fatal(err)
	}
	b.Generate(3, 0.2)
	run := newObsRun(4, 1, 3)
	root, _ := b.Program(run.r, Shared)
	run.k.PauseAfter(2)
	if _, err := run.r.Run(b.Name(), root); !errors.Is(err, core.ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	var buf bytes.Buffer
	if err := run.k.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := core.ReadCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine checkpoint failed to read: %v", err)
	}
	// Flip one bit at a spread of offsets (including the CRC itself).
	for _, off := range []int{0, 7, 8, len(data) / 3, len(data) / 2, len(data) - 5, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := core.ReadCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at offset %d went undetected", off)
		}
	}
	for _, n := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if _, err := core.ReadCheckpoint(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestCheckpointDamagedSections: a resume decodes no section; it compares
// each against the replay, and the file must carry exactly the sections
// the replay writes. So a file whose CRC is valid but whose kernel, shard,
// runtime or network section is damaged or dropped must fail the resume
// with an error naming the section — never a panic, never a run that
// continues with part of its state unchecked — and so must a file with a
// section no replay writes, like version 6's obs.trace.
func TestCheckpointDamagedSections(t *testing.T) {
	b, err := ByName("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	b.Generate(5, 0.1)
	run := newObsRun(4, 2, 5)
	root, _ := b.Program(run.r, Shared)
	run.k.PauseAfter(8)
	if _, err := run.r.Run(b.Name(), root); !errors.Is(err, core.ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	var file bytes.Buffer
	if err := run.k.Checkpoint(&file); err != nil {
		t.Fatal(err)
	}
	resume := func(what, section string, damage func(*snap.Container)) {
		ck, err := core.ReadCheckpoint(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		damage(ck)
		// Through the writer and the reader again: the damaged file is
		// CRC-valid, as one written by a buggy or hostile producer is.
		var damaged bytes.Buffer
		if _, err := ck.WriteTo(&damaged); err != nil {
			t.Fatal(err)
		}
		if ck, err = core.ReadCheckpoint(&damaged); err != nil {
			t.Fatalf("%s: container refused: %v", what, err)
		}
		res := newObsRun(4, 2, 5)
		if err := res.k.ArmResume(ck); err != nil {
			t.Fatalf("%s: arming: %v", what, err)
		}
		root, _ := b.Program(res.r, Shared)
		_, err = res.r.Run(b.Name(), root)
		if err == nil || errors.Is(err, core.ErrPaused) {
			t.Errorf("%s: resume returned %v, want an error", what, err)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("section %q", section)) {
			t.Errorf("%s: error does not name the section: %v", what, err)
		}
	}
	for _, section := range []string{"kernel", "shard.0", "rt", "network"} {
		for _, damage := range []struct {
			name string
			do   func([]byte) []byte
		}{
			{"emptied", func(p []byte) []byte { return nil }},
			{"truncated", func(p []byte) []byte { return p[:len(p)/2] }},
			{"last byte dropped", func(p []byte) []byte { return p[:len(p)-1] }},
			{"padded", func(p []byte) []byte { return append(p, 0) }},
			{"garbled", func(p []byte) []byte { return bytes.Repeat([]byte{0xff}, len(p)) }},
		} {
			resume(section+" "+damage.name, section, func(ck *snap.Container) {
				ck.Sections[section] = damage.do(ck.Sections[section])
			})
		}
		resume(section+" dropped", section, func(ck *snap.Container) {
			delete(ck.Sections, section)
			ck.SectionOrder = slices.DeleteFunc(ck.SectionOrder, func(n string) bool { return n == section })
		})
	}
	resume("leftover obs.trace", "obs.trace", func(ck *snap.Container) {
		ck.Add("obs.trace", []byte{0})
	})
}
