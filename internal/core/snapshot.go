package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"simany/internal/snap"
	"simany/internal/timing"
)

// ErrPaused is returned by Run when the engine reaches the position armed
// with PauseAfter: the kernel sits at a quiescent, checkpointable point
// (a completed barrier on the sharded engine, between steps on the
// sequential one) and Run may be called again to continue.
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
	ck := k.buildContainer()
	_, err := ck.WriteTo(w)
	return err
}

// buildContainer assembles the checkpoint container from the current
// state.
func (k *Kernel) buildContainer() *snap.Container {
	ck := &snap.Container{
		Fingerprint: k.fprint,
		Pos:         k.Position(),
	}
	if k.sharded {
		ck.Engine = snap.EngineSharded
	}
	k.payload(ck)
	k.obsSections(ck)
	return ck
}

// payload appends every simulation-state section (everything the
// replay-verified restore byte-compares).
func (k *Kernel) payload(ck *snap.Container) {
	enc := snap.NewEncoder()
	enc.Varint(k.steps.Load())
	enc.Varint(k.barriers)
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
}

// obsSections appends the observability sections: trace sequence counters
// and the metrics registry. They are spliced in verbatim rather than
// replay-verified (replay runs with observability detached), so their
// names carry the "obs." prefix that excludes them from byte comparison.
func (k *Kernel) obsSections(ck *snap.Container) {
	enc := snap.NewEncoder()
	enc.Uvarint(k.traceSeq)
	for _, d := range k.domains {
		enc.Uvarint(d.traceSeq)
	}
	ck.Add("obs.trace", enc.Bytes())
	if k.met != nil {
		enc := snap.NewEncoder()
		k.met.reg.SnapshotState(enc)
		ck.Add("obs.metrics", enc.Bytes())
	}
}

// snapshot appends one domain's state: the per-shard root of the
// Snapshottable hierarchy.
func (d *domain) snapshot(enc *snap.Encoder) {
	enc.Varint(d.live)
	enc.Time(d.maxTime)
	enc.Varint(d.stepsTotal)
	enc.Varint(d.oooMsgs)
	enc.Varint(d.handled)
	enc.Varint(d.runnableSum)
	enc.Varint(d.runnableSamples)
	enc.Varint(int64(d.runnableMax))
	for _, c := range d.cores {
		c.snapshot(enc)
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
func (c *Core) snapshot(enc *snap.Encoder) {
	enc.Time(c.vt)
	enc.Bool(c.idle)
	enc.Varint(int64(c.lockDepth))
	enc.Uvarint(c.taskSeq)
	enc.Time(c.lastHandled)
	enc.Uvarint(c.rng.State())
	switch p := c.timer.Predictor.(type) {
	case *timing.ProbabilisticPredictor:
		enc.Uvarint(1)
		enc.Uvarint(p.RngState())
	case nil:
		enc.Uvarint(2)
	default:
		enc.Uvarint(0) // opaque predictor: only its presence is compared
	}
	st := &c.stats
	enc.Varint(st.Blocks)
	enc.Varint(st.Instructions)
	enc.Varint(st.Stalls)
	enc.Varint(st.TaskStarts)
	enc.Varint(st.Switches)
	enc.Varint(st.MsgsSent)
	enc.Time(st.ComputeTime)
	enc.Time(st.MemTime)
	enc.Time(st.StallWaitTime)
	ids := make([]uint64, 0, len(c.births))
	for id := range c.births {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.Uvarint(id)
		enc.Time(c.births[id])
	}
	c.l1.Snapshot(enc)
	c.l2.Snapshot(enc)
	enc.Bool(c.current != nil)
	if c.current != nil {
		c.k.encodeTask(enc, c.current)
	}
	enc.Uvarint(uint64(len(c.conts)))
	for _, t := range c.conts {
		c.k.encodeTask(enc, t)
	}
	enc.Uvarint(uint64(len(c.ready)))
	for _, t := range c.ready {
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
	enc.Bool(t.started)
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
	wantEngine := snap.EngineSequential
	if k.sharded {
		wantEngine = snap.EngineSharded
	}
	if ck.Engine != wantEngine {
		return fmt.Errorf("core: checkpoint engine kind %d does not match this kernel (%d)", ck.Engine, wantEngine)
	}
	if ck.Pos < 1 {
		return fmt.Errorf("core: checkpoint position %d is not a barrier", ck.Pos)
	}
	k.resume = ck
	return nil
}

// Resume reads a checkpoint and builds a kernel armed to restore it on
// its next Run. The configuration must reproduce the checkpointed one
// (enforced via the embedded fingerprint), and the caller must rebuild
// and inject the original program (the benchmark drivers do: Program is
// required to be re-callable) before running.
func Resume(r io.Reader, cfg Config) (*Kernel, error) {
	ck, err := ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	k := New(cfg)
	if err := k.ArmResume(ck); err != nil {
		return nil, err
	}
	return k, nil
}

// restoreReplay is the one restore path: it re-derives the checkpointed
// state by deterministic replay, so a resume costs what the prefix cost.
// The engine's core guarantee — results depend only on (seed, shards,
// config), never on workers or host scheduling — makes the re-execution
// reproduce the original prefix exactly; pausing at the recorded position
// and byte-comparing every simulation-state section against the file
// turns that argument into a checked invariant. The prefix runs with
// observability detached (its events and samples are what the file's
// obs.* sections record); the caller's PauseAfter position is kept for
// the continuation and must lie beyond the checkpoint's.
func (k *Kernel) restoreReplay(ck *snap.Container) error {
	if k.steps.Load() != 0 || k.barriers != 0 {
		return errors.New("core: resume requires a freshly constructed kernel")
	}
	pause := k.stopAfter
	if pause > 0 && pause <= ck.Pos {
		return fmt.Errorf("core: pause position %d is not beyond the resumed checkpoint's position %d", pause, ck.Pos)
	}
	tracer, met := k.tracer, k.met
	k.tracer, k.met = nil, nil
	if met != nil {
		k.net.SetObserver(nil)
	}
	k.stopAfter = ck.Pos
	_, err := k.runEngine()
	k.stopAfter = pause
	k.tracer, k.met = tracer, met
	if met != nil {
		k.net.SetObserver(netObserver{k})
	}
	if err == nil {
		return fmt.Errorf("core: program finished before checkpoint position %d; was the original program re-injected?", ck.Pos)
	}
	if !errors.Is(err, ErrPaused) {
		return fmt.Errorf("core: replaying to checkpoint position: %w", err)
	}
	if err := k.verifyReplay(ck); err != nil {
		return err
	}
	if err := k.restoreObs(ck); err != nil {
		return err
	}
	k.paused = false
	return nil
}

// verifyReplay byte-compares every simulation-state section of the file
// against the state the replay reached ("obs." sections are spliced, not
// compared).
func (k *Kernel) verifyReplay(ck *snap.Container) error {
	replayed := &snap.Container{}
	k.payload(replayed)
	for _, name := range ck.SectionOrder {
		if strings.HasPrefix(name, "obs.") {
			continue
		}
		want := ck.Sections[name]
		got, ok := replayed.Sections[name]
		if !ok {
			return fmt.Errorf("core: replay verification failed: section %q missing from replayed state (layer not re-registered?)", name)
		}
		if string(want) != string(got) {
			return fmt.Errorf("core: replay verification failed at position %d: section %q differs from the checkpoint (%d bytes in the file, %d replayed) — either this run differs from the checkpointed one in something the fingerprint does not cover (the program: benchmark, dataset scale; the memory system; network or cost-model parameters), or the run is not deterministic under this configuration", ck.Pos, name, len(want), len(got))
		}
	}
	return nil
}

// restoreObs splices the recorded observability state — global and
// per-shard trace sequence counters, the metrics registry's striped
// instrument state — into the kernel, so the resumed run's trace stream
// and metrics snapshots continue exactly where the original's stopped.
func (k *Kernel) restoreObs(ck *snap.Container) error {
	b, err := ck.Section("obs.trace")
	if err != nil {
		return err
	}
	dec := snap.NewDecoder(b)
	if k.traceSeq, err = dec.Uvarint(); err != nil {
		return fmt.Errorf("core: restoring trace counters: %w", err)
	}
	for _, d := range k.domains {
		if d.traceSeq, err = dec.Uvarint(); err != nil {
			return fmt.Errorf("core: restoring trace counters: %w", err)
		}
	}
	if dec.Remaining() != 0 {
		return fmt.Errorf("core: restoring trace counters: %w: %d trailing bytes", snap.ErrCorrupt, dec.Remaining())
	}
	if k.met != nil {
		b, ok := ck.Sections["obs.metrics"]
		if !ok {
			return errors.New("core: kernel has a metrics registry but the checkpoint carries none")
		}
		dec := snap.NewDecoder(b)
		if err := k.met.reg.RestoreState(dec); err != nil {
			return fmt.Errorf("core: restoring metrics: %w", err)
		}
		if dec.Remaining() != 0 {
			return fmt.Errorf("core: restoring metrics: %w: %d trailing bytes", snap.ErrCorrupt, dec.Remaining())
		}
	}
	return nil
}
