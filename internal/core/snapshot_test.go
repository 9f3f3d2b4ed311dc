package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"simany/internal/metrics"
	"simany/internal/snap"
	"simany/internal/topology"
)

// pausedCheckpoint runs k to ErrPaused at pos and returns the parsed
// checkpoint taken there.
func pausedCheckpoint(t *testing.T, k *Kernel, pos int64) *snap.Container {
	t.Helper()
	k.PauseAfter(pos)
	if _, err := k.Run(); !errors.Is(err, ErrPaused) {
		t.Fatalf("expected ErrPaused at position %d, got %v (position %d)", pos, err, k.Position())
	}
	var buf bytes.Buffer
	if err := k.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestChainedCheckpoints: a resumed run honours the caller's PauseAfter —
// the replay to the first checkpoint's position used to wipe it, so
// "-resume a.ck -checkpoint b.ck" ran to completion and wrote nothing — and
// the second checkpoint resumes to the uninterrupted run's Result and,
// spliced over the three segments, its trace.
func TestChainedCheckpoints(t *testing.T) {
	for _, shards := range []int{1, 4} {
		traced := func(workers int) (*Kernel, *sliceTracer) {
			k, tr := churnKernel(shards, workers, 20), &sliceTracer{}
			k.SetTracer(tr)
			return k, tr
		}
		full, fullTr := traced(2)
		want, err := full.Run()
		if err != nil {
			t.Fatal(err)
		}
		posA, posB := full.Position()/3, 2*full.Position()/3
		if posA < 1 || posB <= posA {
			t.Fatalf("shards=%d: run too short to interrupt twice (position %d)", shards, full.Position())
		}

		a, trA := traced(2)
		ckA := pausedCheckpoint(t, a, posA)

		b, trB := traced(1)
		if err := b.ArmResume(ckA); err != nil {
			t.Fatal(err)
		}
		ckB := pausedCheckpoint(t, b, posB)
		// The sharded engine pauses at the first barrier reaching posB.
		if ckB.Pos < posB || (shards == 1 && ckB.Pos != posB) {
			t.Fatalf("shards=%d: second checkpoint at position %d, want %d", shards, ckB.Pos, posB)
		}

		c, trC := traced(3)
		if err := c.ArmResume(ckB); err != nil {
			t.Fatal(err)
		}
		got, err := c.Run()
		if err != nil {
			t.Fatalf("shards=%d: resuming the second checkpoint: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: chained resume result differs:\n  got  %+v\n  want %+v", shards, got, want)
		}
		spliced := append(append(append([]TraceEvent(nil), trA.events...), trB.events...), trC.events...)
		if !reflect.DeepEqual(spliced, fullTr.events) {
			t.Errorf("shards=%d: spliced trace differs from the uninterrupted one (%d+%d+%d vs %d events)",
				shards, len(trA.events), len(trB.events), len(trC.events), len(fullTr.events))
		}

		// A pause the checkpoint is already past can never be honoured.
		d := churnKernel(shards, 2, 20)
		if err := d.ArmResume(ckB); err != nil {
			t.Fatal(err)
		}
		d.PauseAfter(ckB.Pos)
		if _, err := d.Run(); err == nil || !strings.Contains(err.Error(), "not beyond") {
			t.Errorf("shards=%d: pause at the resumed position: err = %v, want a refusal", shards, err)
		}
	}
}

// TestShardedPauseCountsSteps: a position counts scheduling steps on the
// sharded engine too. PauseAfter(N) stops at the first barrier whose step
// count reaches N, Position() is the paused Result.Steps, and a replay to
// that position resumes there byte-identically.
func TestShardedPauseCountsSteps(t *testing.T) {
	want, err := churnKernel(4, 2, 20).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Walk every barrier: each pause's Position()+1 is the next stop.
	k := churnKernel(4, 1, 20)
	var stops []int64
	for pos := int64(1); ; pos = k.Position() + 1 {
		k.PauseAfter(pos)
		res, err := k.Run()
		if err == nil {
			if !reflect.DeepEqual(res, want) {
				t.Errorf("run paused at every barrier differs:\n  got  %+v\n  want %+v", res, want)
			}
			break
		}
		if !errors.Is(err, ErrPaused) {
			t.Fatal(err)
		}
		if k.Position() != res.Steps || k.Position() < pos {
			t.Fatalf("paused for %d at position %d, Result.Steps %d", pos, k.Position(), res.Steps)
		}
		stops = append(stops, k.Position())
	}
	// Pick a barrier more than one step after the previous one, so the
	// pause request falls strictly inside the round that reaches it.
	j := 0
	for i := 1; i < len(stops) && j == 0; i++ {
		if stops[i]-stops[i-1] > 1 {
			j = i
		}
	}
	if len(stops) < 5 || j == 0 {
		t.Fatalf("workload too tame: barriers at steps %v", stops)
	}
	ck := pausedCheckpoint(t, churnKernel(4, 3, 20), stops[j-1]+1)
	if ck.Pos != stops[j] {
		t.Fatalf("pause for %d stopped at position %d, want the barrier at %d", stops[j-1]+1, ck.Pos, stops[j])
	}
	r := churnKernel(4, 2, 20)
	if err := r.ArmResume(ck); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestFailedResumeIsTerminal: a resume whose replay does not reproduce the
// file says which section differs and at what position, keeps its metrics
// and gets back the tracer it swapped out for the replay, and — like any
// failed run — leaves no worker coroutine parked in a task body behind.
func TestFailedResumeIsTerminal(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ck := pausedCheckpoint(t, churnKernel(shards, 2, 20), 6)
		sec := ck.Sections["shard.0"]
		sec[len(sec)/2] ^= 0x01

		before := runtime.NumGoroutine()
		k := churnKernel(shards, 2, 20)
		tr := &sliceTracer{}
		k.SetTracer(tr)
		k.met = newKernelMetrics(metrics.New(), len(k.domains))
		met := k.met
		if err := k.ArmResume(ck); err != nil {
			t.Fatal(err)
		}
		_, err := k.Run()
		if err == nil {
			t.Fatalf("shards=%d: resume over a damaged section succeeded", shards)
		}
		for _, want := range []string{`section "shard.0"`, fmt.Sprintf("position %d", ck.Pos), "fingerprint does not cover", "not deterministic"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("shards=%d: error does not mention %q: %v", shards, want, err)
			}
		}
		if k.tracer != Tracer(tr) || k.met != met {
			t.Errorf("shards=%d: observability not re-attached after the failed replay", shards)
		}
		if _, again := k.Run(); again != err {
			t.Errorf("shards=%d: second Run = %v, want the first failure again", shards, again)
		}
		if g := settledGoroutines(before); g > before {
			t.Errorf("shards=%d: goroutines grew %d -> %d: parked workers leaked", shards, before, g)
		}
	}
}

// TestResumeAttachesObservability: a resume may attach a tracer and metrics
// the checkpointed run lacked. The replay reproduces both over the prefix,
// so the continuation's trace, Seq values included, is the tail of an
// uninterrupted traced run and its metrics text is that run's.
func TestResumeAttachesObservability(t *testing.T) {
	for _, shards := range []int{1, 4} {
		observed := func(workers int) (*Kernel, *sliceTracer, *metrics.Registry) {
			tr, reg := &sliceTracer{}, metrics.New()
			k := churnOn(Config{Topo: topology.Mesh(16), Policy: Spatial{T: DefaultT},
				Seed: 3, Shards: shards, Workers: workers, Tracer: tr, Metrics: reg}, 20)
			return k, tr, reg
		}
		full, fullTr, fullReg := observed(2)
		want, err := full.Run()
		if err != nil {
			t.Fatal(err)
		}
		ck := pausedCheckpoint(t, churnKernel(shards, 2, 20), full.Position()/2)

		k, tr, reg := observed(3)
		if err := k.ArmResume(ck); err != nil {
			t.Fatal(err)
		}
		got, err := k.Run()
		if err != nil {
			t.Fatalf("shards=%d: resuming with observability attached: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: resumed result differs:\n  got  %+v\n  want %+v", shards, got, want)
		}
		n := len(tr.events)
		if n == 0 || n >= len(fullTr.events) {
			t.Fatalf("shards=%d: continuation traced %d of the full run's %d events", shards, n, len(fullTr.events))
		}
		if tail := fullTr.events[len(fullTr.events)-n:]; !reflect.DeepEqual(tr.events, tail) {
			t.Errorf("shards=%d: continuation trace is not the full run's tail: first event %+v, want %+v", shards, tr.events[0], tail[0])
		}
		var gotText, wantText bytes.Buffer
		if err := reg.WriteText(&gotText); err != nil {
			t.Fatal(err)
		}
		if err := fullReg.WriteText(&wantText); err != nil {
			t.Fatal(err)
		}
		if gotText.String() != wantText.String() {
			t.Errorf("shards=%d: resumed metrics differ:\n%s\nwant\n%s", shards, gotText.String(), wantText.String())
		}
	}
}
