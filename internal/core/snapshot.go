package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"simany/internal/snap"
	"simany/internal/timing"
)

// ErrPaused is returned by Run when the engine reaches the step count
// armed with PauseAfter: the kernel sits at a quiescent, checkpointable
// point (between steps on the sequential engine, at the first barrier
// that reaches the count on the sharded one) and Run may be called again
// to continue.
var ErrPaused = errors.New("core: paused at checkpoint position")

// TaskCodec serializes the runtime metadata of a task. The kernel owns
// the generic task fields (ID, name, stamps, flags); the Meta payload
// belongs to the layer that created the task, which registers a codec via
// SetTaskCodec. The task runtime in internal/rt is the canonical
// implementation. Task bodies are closures and are never serialized:
// restore re-executes them (restoreReplay).
type TaskCodec interface {
	// EncodeTask appends t's meta descriptor. It must be deterministic
	// (equal task state, equal bytes).
	EncodeTask(enc *snap.Encoder, t *Task)
}

// SetTaskCodec registers the task meta codec. At most one layer owns it.
func (k *Kernel) SetTaskCodec(c TaskCodec) {
	if k.taskCodec != nil {
		panic("core: task codec already registered")
	}
	k.taskCodec = c
}

// namedSnap is one externally registered snapshot section.
type namedSnap struct {
	name string
	s    snap.Snapshottable
}

// RegisterSnapshot attaches an external component's state to the kernel's
// checkpoint under the given section name. Registration order (setup
// time, single-threaded) fixes the section order in the file.
func (k *Kernel) RegisterSnapshot(name string, s snap.Snapshottable) {
	for _, es := range k.extSnaps {
		if es.name == name {
			panic("core: duplicate snapshot section " + name)
		}
	}
	k.extSnaps = append(k.extSnaps, namedSnap{name: name, s: s})
}

// Checkpoint writes the kernel's complete simulation state to w in the
// versioned container format of docs/checkpoint.md. It is only legal at a
// pause point (Run returned ErrPaused after PauseAfter): that is the one
// state where outboxes are drained, proxies refreshed and every parked
// task sits at a known park point.
func (k *Kernel) Checkpoint(w io.Writer) error {
	if !k.paused {
		return errors.New("core: Checkpoint is only legal at a virtual-time barrier (run with PauseAfter and checkpoint after ErrPaused)")
	}
	ck := &snap.Container{Fingerprint: k.fprint, Pos: k.Position()}
	k.payload(ck)
	_, err := ck.WriteTo(w)
	return err
}

// payload appends every section of a checkpoint: the simulation state the
// replay-verified restore byte-compares.
func (k *Kernel) payload(ck *snap.Container) {
	enc := snap.NewEncoder()
	enc.Varint(k.steps.Load())
	ck.Add("kernel", enc.Bytes())

	for _, d := range k.domains {
		enc := snap.NewEncoder()
		d.snapshot(enc)
		ck.Add(fmt.Sprintf("shard.%d", d.id), enc.Bytes())
	}

	for _, es := range k.extSnaps {
		enc := snap.NewEncoder()
		es.s.Snapshot(enc)
		ck.Add(es.name, enc.Bytes())
	}

	enc = snap.NewEncoder()
	k.net.Snapshot(enc)
	ck.Add("network", enc.Bytes())

	// The root's counters and vectors, less the barrier pair only a
	// caller-supplied registry records: a checkpoint compares the same
	// state whether or not one was attached.
	enc = snap.NewEncoder()
	if k.met != nil {
		k.reg.EncodeState(enc, k.met.barriers, k.met.barrierStall)
	} else {
		k.reg.EncodeState(enc)
	}
	ck.Add("metrics", enc.Bytes())
}

// snapshot appends one domain's state: the per-shard root of the
// Snapshottable hierarchy.
func (d *domain) snapshot(enc *snap.Encoder) {
	enc.Varint(d.live)
	enc.Time(d.maxTime)
	enc.Varint(int64(d.runnableMax))
	var fresh runState // what each core not used yet encodes
	for _, c := range d.cores {
		c.snapshot(enc, &fresh)
	}
	// Blocked registry, sorted by task ID for canonical bytes.
	ids := make([]uint64, 0, len(d.blocked))
	for id := range d.blocked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		t := d.blocked[id]
		enc.Uvarint(uint64(t.core.ID))
		d.k.encodeTask(enc, t)
	}
}

// snapshot appends one core's state. Derivable state — eff, nbEff, the
// sched heap position, the lazy queue-minimum caches, and the whole lazy
// effective-time apparatus (memo stamps, anchor heap, stall heap,
// pruning floors; efflazy.go) — is deliberately excluded: it is a function
// of what is written here, the replay rebuilds it along with the rest, and
// Kernel.Validate is what checks it.
//
// A core not used yet has no run state and encodes the fresh one, which
// initRun builds into the scratch fresh: its bytes are those of the same
// core with its state allocated and untouched.
func (c *Core) snapshot(enc *snap.Encoder, fresh *runState) {
	r := c.run
	if r == nil {
		c.k.initRun(fresh, c.ID)
		r = fresh
	}
	enc.Time(c.vt)
	enc.Bool(c.idle)
	enc.Varint(int64(c.lockDepth))
	enc.Uvarint(r.taskSeq)
	enc.Time(r.lastHandled)
	enc.Uvarint(r.rng.State())
	switch p := r.timer.Predictor.(type) {
	case *timing.ProbabilisticPredictor:
		enc.Uvarint(1)
		enc.Uvarint(p.RngState())
	case nil:
		enc.Uvarint(2)
	default:
		enc.Uvarint(0) // opaque predictor: only its presence is compared
	}
	enc.Uvarint(uint64(len(r.births)))
	for _, b := range r.births {
		enc.Uvarint(b.id)
		enc.Time(b.stamp)
	}
	r.l1.Snapshot(enc)
	r.l2.Snapshot(enc)
	enc.Bool(c.current != nil)
	if c.current != nil {
		c.k.encodeTask(enc, c.current)
	}
	enc.Uvarint(uint64(len(r.conts)))
	for _, t := range r.conts {
		c.k.encodeTask(enc, t)
	}
	enc.Uvarint(uint64(len(r.ready)))
	for _, t := range r.ready {
		c.k.encodeTask(enc, t)
	}
}

// encodeTask appends one task record: generic fields plus the codec's
// meta descriptor.
func (k *Kernel) encodeTask(enc *snap.Encoder, t *Task) {
	enc.Uvarint(t.ID)
	enc.String(t.Name)
	enc.Time(t.arrival)
	enc.Time(t.resume)
	enc.Bool(t.worker != nil)
	enc.Bool(t.pendingWake)
	enc.Bool(t.release)
	if k.taskCodec != nil {
		k.taskCodec.EncodeTask(enc, t)
		return
	}
	enc.Uvarint(0) // no codec: no meta
}

// ReadCheckpoint parses and validates a checkpoint file.
func ReadCheckpoint(r io.Reader) (*snap.Container, error) {
	return snap.ReadContainer(r)
}

// ArmResume validates ck against this kernel's configuration and arms it:
// the next Run restores the checkpointed state by verified replay
// (restoreReplay) before continuing to quiescence. The kernel must be
// freshly constructed and have the same program injected as the original
// run.
func (k *Kernel) ArmResume(ck *snap.Container) error {
	if ck.Fingerprint != k.fprint {
		return fmt.Errorf("core: checkpoint fingerprint %#x does not match this configuration (%#x): same (seed, shards, topology, policy) required", ck.Fingerprint, k.fprint)
	}
	if ck.Pos < 1 {
		return fmt.Errorf("core: checkpoint position %d is not a pause point", ck.Pos)
	}
	k.resume = ck
	return nil
}

// restoreReplay is the one restore path: it re-derives the checkpointed
// state by deterministic replay, so a resume costs what the prefix cost.
// The engine's core guarantee — results depend only on (seed, shards,
// config), never on workers or host scheduling — makes the re-execution
// reproduce the original prefix exactly; pausing at the recorded position
// and byte-comparing every section against the file turns that argument
// into a checked invariant. Observability is reproduced the same way:
// metrics and the network observer stay attached, and an installed tracer
// is swapped for one that drops the prefix's events, so every trace
// sequence counter ends where the uninterrupted run's does. The caller's
// PauseAfter position is kept for the continuation and must lie beyond
// the checkpoint's.
func (k *Kernel) restoreReplay(ck *snap.Container) error {
	if k.steps.Load() != 0 {
		return errors.New("core: resume requires a freshly constructed kernel")
	}
	pause := k.stopAfter
	if pause > 0 && pause <= ck.Pos {
		return fmt.Errorf("core: pause position %d is not beyond the resumed checkpoint's position %d", pause, ck.Pos)
	}
	tracer := k.tracer
	if tracer != nil {
		k.tracer = discardTracer{}
	}
	k.stopAfter = ck.Pos
	_, err := k.runEngine()
	k.stopAfter, k.tracer = pause, tracer
	if err == nil {
		return fmt.Errorf("core: program finished before checkpoint position %d; was the original program re-injected?", ck.Pos)
	}
	if !errors.Is(err, ErrPaused) {
		return fmt.Errorf("core: replaying to checkpoint position: %w", err)
	}
	if err := k.verifyReplay(ck); err != nil {
		return err
	}
	k.paused = false
	return nil
}

// discardTracer drops every event. It stands in for the caller's tracer
// during the replay, so emit and flushTrace still number the events.
type discardTracer struct{}

// Trace implements Tracer.
func (discardTracer) Trace(TraceEvent) {}

// verifyReplay byte-compares every section against the state the replay
// reached. The file and the replay must name the same sections: one
// dropped from the file would otherwise resume with its state unchecked.
func (k *Kernel) verifyReplay(ck *snap.Container) error {
	replayed := &snap.Container{}
	k.payload(replayed)
	for _, name := range replayed.SectionOrder {
		want, ok := ck.Sections[name]
		if !ok {
			return fmt.Errorf("core: replay verification failed: section %q is missing from the checkpoint", name)
		}
		if got := replayed.Sections[name]; string(want) != string(got) {
			return fmt.Errorf("core: replay verification failed at position %d: section %q differs from the checkpoint (%d bytes in the file, %d replayed) — either this run differs from the checkpointed one in something the fingerprint does not cover (the program: benchmark, dataset scale; the memory system; network or cost-model parameters), or the run is not deterministic under this configuration", ck.Pos, name, len(want), len(got))
		}
	}
	for _, name := range ck.SectionOrder {
		if _, ok := replayed.Sections[name]; !ok {
			return fmt.Errorf("core: replay verification failed: section %q missing from replayed state (layer not re-registered?)", name)
		}
	}
	return nil
}
