package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"simany/internal/metrics"
	"simany/internal/snap"
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
		if ckB.Pos != posB {
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
		d.PauseAfter(posB)
		if _, err := d.Run(); err == nil || !strings.Contains(err.Error(), "not beyond") {
			t.Errorf("shards=%d: pause at the resumed position: err = %v, want a refusal", shards, err)
		}
	}
}

// TestFailedResumeIsTerminal: a resume whose replay does not reproduce the
// file says which section differs and at what position, hands back the
// observability it detached for the replay, and — like any failed run —
// leaves no worker coroutine parked in a task body behind.
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
		for _, want := range []string{`section "shard.0"`, "position 6", "fingerprint does not cover", "not deterministic"} {
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
