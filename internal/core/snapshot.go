package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"simany/internal/snap"
	"simany/internal/timing"
	"simany/internal/vtime"
)

// ErrPaused is returned by Run when the engine reaches the position armed
// with PauseAfter: the kernel sits at a quiescent, checkpointable point
// (a completed barrier on the sharded engine, between steps on the
// sequential one) and Run may be called again to continue.
var ErrPaused = errors.New("core: paused at checkpoint position")

// TaskCodec serializes task bodies and runtime metadata. The kernel owns
// the generic task fields (ID, name, stamps, flags); everything above —
// the body's resumption-step descriptor and the runtime's Meta payload —
// belongs to the layer that created the task, which registers a codec via
// SetTaskCodec. The task runtime in internal/rt is the canonical
// implementation.
type TaskCodec interface {
	// EncodeTask appends t's body/meta descriptor. It must be
	// deterministic (equal task state, equal bytes) and reports whether
	// the task can be restored by pure decode — false for closure bodies,
	// which only verified replay can reconstruct.
	EncodeTask(enc *snap.Encoder, t *Task) bool
	// DecodeTask consumes the descriptor written by EncodeTask, restores
	// t.Meta, and returns the body's resumption entry point. The kernel
	// runs the entry on a worker that has not run the body before.
	DecodeTask(dec *snap.Decoder, t *Task) (func(*Env), error)
}

// SetTaskCodec registers the task body codec. At most one layer owns it.
func (k *Kernel) SetTaskCodec(c TaskCodec) {
	if k.taskCodec != nil {
		panic("core: task codec already registered")
	}
	k.taskCodec = c
}

// StatelessMem is implemented by memory systems with no mutable state of
// their own (all timing state lives in the per-core caches the kernel
// already snapshots). Systems that do not implement it force checkpoint
// files into replay mode.
type StatelessMem interface {
	MemStateless() bool
}

// DecodeVetoer lets a registered external snapshot veto pure-decode
// restore (e.g. the task runtime when live cells hold payloads without
// codecs). Vetoed checkpoints fall back to verified replay.
type DecodeVetoer interface {
	DecodeSafe() bool
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
// task is expressible as a (task, continuation point) pair.
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
		Mode:        snap.ModeDecode,
	}
	if k.sharded {
		ck.Engine = snap.EngineSharded
	}
	if !k.payload(ck) {
		ck.Mode = snap.ModeReplay
	}
	k.obsSections(ck)
	return ck
}

// payload appends every simulation-state section (everything the
// replay-verified restore byte-compares) and reports whether the state is
// decode-restorable.
func (k *Kernel) payload(ck *snap.Container) bool {
	decodeOK := true
	if m, ok := k.mem.(StatelessMem); !ok || !m.MemStateless() {
		decodeOK = false
	}

	enc := snap.NewEncoder()
	enc.Varint(k.steps.Load())
	enc.Varint(k.barriers)
	ck.Add("kernel", enc.Bytes())

	for _, d := range k.domains {
		enc := snap.NewEncoder()
		if !d.snapshot(enc) {
			decodeOK = false
		}
		ck.Add(fmt.Sprintf("shard.%d", d.id), enc.Bytes())
	}

	for _, es := range k.extSnaps {
		enc := snap.NewEncoder()
		es.s.Snapshot(enc)
		ck.Add(es.name, enc.Bytes())
		if v, ok := es.s.(DecodeVetoer); ok && !v.DecodeSafe() {
			decodeOK = false
		}
	}

	enc = snap.NewEncoder()
	k.net.Snapshot(enc)
	ck.Add("network", enc.Bytes())
	return decodeOK
}

// obsSections appends the observability sections: trace sequence counters
// and the metrics registry. They are restored verbatim rather than
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
// Snapshottable hierarchy. Reports decode-restorability (false as soon as
// one resident task or predictor is opaque).
func (d *domain) snapshot(enc *snap.Encoder) bool {
	decodeOK := true
	enc.Varint(d.live)
	enc.Time(d.maxTime)
	enc.Varint(d.stepsTotal)
	enc.Varint(d.oooMsgs)
	enc.Varint(d.handled)
	enc.Varint(d.runnableSum)
	enc.Varint(d.runnableSamples)
	enc.Varint(int64(d.runnableMax))
	for _, c := range d.cores {
		if !c.snapshot(enc) {
			decodeOK = false
		}
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
		if !d.k.encodeTask(enc, t) {
			decodeOK = false
		}
	}
	return decodeOK
}

// snapshot appends one core's state. Derivable state — eff, nbEff, the
// sched heap position, the lazy queue-minimum caches, and the whole lazy
// effective-time apparatus (memo stamps, anchor heap, stall heap,
// pruning floors; efflazy.go) — is deliberately excluded: restore rebuilds
// it (refreshEff, schedRebuild, lazy recompute) and Kernel.Validate
// re-verifies it. That also keeps checkpoints byte-identical across Eff
// modes, which is what lets a run restored under a different mode produce
// the same results.
func (c *Core) snapshot(enc *snap.Encoder) bool {
	decodeOK := true
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
		enc.Uvarint(0) // opaque predictor: replay reconstructs it
		decodeOK = false
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
		if !c.k.encodeTask(enc, c.current) {
			decodeOK = false
		}
	}
	enc.Uvarint(uint64(len(c.conts)))
	for _, t := range c.conts {
		if !c.k.encodeTask(enc, t) {
			decodeOK = false
		}
	}
	enc.Uvarint(uint64(len(c.ready)))
	for _, t := range c.ready {
		if !c.k.encodeTask(enc, t) {
			decodeOK = false
		}
	}
	return decodeOK
}

// encodeTask appends one task record: generic fields plus the codec's
// body/meta descriptor. Reports decode-restorability.
func (k *Kernel) encodeTask(enc *snap.Encoder, t *Task) bool {
	enc.Uvarint(t.ID)
	enc.String(t.Name)
	enc.Time(t.arrival)
	enc.Time(t.resume)
	enc.Bool(t.started)
	enc.Bool(t.pendingWake)
	enc.Bool(t.release)
	if k.taskCodec != nil {
		return k.taskCodec.EncodeTask(enc, t)
	}
	enc.Uvarint(0) // no codec: opaque body
	return false
}

// decodeTask reads one task record for core c in lifecycle state state and
// re-attaches it: the entry is the body of an unstarted task and, for a
// started one, continues where the original yielded. Either way it runs on
// the worker the task's next step attaches (domain.step).
func (k *Kernel) decodeTask(dec *snap.Decoder, c *Core, state TaskState) (*Task, error) {
	t := &Task{core: c, state: state}
	var err error
	if t.ID, err = dec.Uvarint(); err != nil {
		return nil, err
	}
	if t.Name, err = dec.String(); err != nil {
		return nil, err
	}
	if t.arrival, err = dec.Time(); err != nil {
		return nil, err
	}
	if t.resume, err = dec.Time(); err != nil {
		return nil, err
	}
	if t.started, err = dec.Bool(); err != nil {
		return nil, err
	}
	if t.pendingWake, err = dec.Bool(); err != nil {
		return nil, err
	}
	if t.release, err = dec.Bool(); err != nil {
		return nil, err
	}
	t.env = Env{k: k, t: t, c: c}
	if k.taskCodec == nil {
		return nil, errors.New("core: decoding a checkpointed task requires a registered task codec")
	}
	entry, err := k.taskCodec.DecodeTask(dec, t)
	if err != nil {
		return nil, fmt.Errorf("task %d %q: %w", t.ID, t.Name, err)
	}
	if entry == nil {
		return nil, fmt.Errorf("task %d %q: opaque body in a decode-mode checkpoint", t.ID, t.Name)
	}
	t.fn = entry
	return t, nil
}

// TaskByID finds a live task by ID, scanning every core's queues and
// every domain's blocked registry. It is a restore-time helper (layers
// re-link task references after decoding), not a hot path.
func (k *Kernel) TaskByID(id uint64) *Task {
	for _, c := range k.cores {
		if c.current != nil && c.current.ID == id {
			return c.current
		}
		for _, t := range c.conts {
			if t.ID == id {
				return t
			}
		}
		for _, t := range c.ready {
			if t.ID == id {
				return t
			}
		}
	}
	for _, d := range k.domains {
		if t, ok := d.blocked[id]; ok {
			return t
		}
	}
	return nil
}

// ReadCheckpoint parses and validates a checkpoint file.
func ReadCheckpoint(r io.Reader) (*snap.Container, error) {
	return snap.ReadContainer(r)
}

// ArmResume validates ck against this kernel's configuration and arms it:
// the next Run restores the checkpointed state (pure decode or verified
// replay, per ck.Mode) before continuing to quiescence. The kernel must
// be freshly constructed and, for replay-mode checkpoints, have the same
// program injected as the original run.
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
// (enforced via the embedded fingerprint). For replay-mode checkpoints
// the caller must also rebuild and inject the original program (the
// benchmark drivers do: Program is required to be re-callable) before
// running.
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

// ResumeModeDecode reports whether the kernel has a decode-mode resume
// armed — in which case the program must NOT be re-injected: the root
// task (and everything it spawned) is part of the restored state.
func (k *Kernel) ResumeModeDecode() bool {
	return k.resume != nil && k.resume.Mode == snap.ModeDecode
}

// applyResume consumes an armed checkpoint: decode-mode files restore
// state directly; replay-mode files re-execute the injected program to
// the recorded position with observability detached, byte-verify the
// reconstructed state against the file, then splice the recorded
// observability state back in.
func (k *Kernel) applyResume(ck *snap.Container) error {
	if k.steps.Load() != 0 || k.barriers != 0 {
		return errors.New("core: resume requires a freshly constructed kernel")
	}
	if ck.Mode == snap.ModeDecode {
		return k.restoreDecode(ck)
	}
	return k.restoreReplay(ck)
}

// restoreReplay re-derives the checkpointed state by deterministic
// replay. The engine's core guarantee — results depend only on (seed,
// shards, config), never on workers or host scheduling — makes the
// re-execution reproduce the original prefix exactly; pausing at the
// recorded position and byte-comparing every simulation-state section
// against the file turns that argument into a checked invariant.
func (k *Kernel) restoreReplay(ck *snap.Container) error {
	savedTracer, savedMet := k.tracer, k.met
	k.tracer, k.met = nil, nil
	if savedMet != nil {
		k.net.SetObserver(nil)
	}
	k.stopAfter = ck.Pos
	_, err := k.runEngine()
	k.stopAfter = 0
	if err == nil {
		return fmt.Errorf("core: program finished before checkpoint position %d; was the original program re-injected?", ck.Pos)
	}
	if !errors.Is(err, ErrPaused) {
		return fmt.Errorf("core: replaying to checkpoint position: %w", err)
	}
	// Verify the replayed state against the file, section by section.
	replayed := &snap.Container{}
	k.payload(replayed)
	for _, name := range ck.SectionOrder {
		if len(name) >= 4 && name[:4] == "obs." {
			continue
		}
		want, got := ck.Sections[name], replayed.Sections[name]
		if got == nil {
			return fmt.Errorf("core: replay verification failed: section %q missing from replayed state (layer not re-registered?)", name)
		}
		if string(want) != string(got) {
			return fmt.Errorf("core: replay verification failed: section %q diverged (%d vs %d bytes) — the run is not deterministic under this configuration", name, len(want), len(got))
		}
	}
	// Splice the recorded observability state back in and re-attach.
	k.tracer, k.met = savedTracer, savedMet
	if savedMet != nil {
		k.net.SetObserver(netObserver{k})
	}
	if err := k.restoreObs(ck); err != nil {
		return err
	}
	k.paused = false
	return nil
}

// restoreDecode restores every section directly into the freshly built
// kernel, rebuilds the derivable structures and re-verifies invariants.
func (k *Kernel) restoreDecode(ck *snap.Container) error {
	if k.liveTasks() != 0 {
		return errors.New("core: decode-mode resume requires no injected tasks (the checkpoint contains the whole task tree)")
	}
	b, err := ck.Section("kernel")
	if err != nil {
		return err
	}
	dec := snap.NewDecoder(b)
	steps, err := dec.Varint()
	if err != nil {
		return err
	}
	k.steps.Store(steps)
	if k.barriers, err = dec.Varint(); err != nil {
		return err
	}
	for _, d := range k.domains {
		b, err := ck.Section(fmt.Sprintf("shard.%d", d.id))
		if err != nil {
			return err
		}
		if err := d.restore(snap.NewDecoder(b)); err != nil {
			return fmt.Errorf("core: restoring shard %d: %w", d.id, err)
		}
	}
	for _, es := range k.extSnaps {
		b, err := ck.Section(es.name)
		if err != nil {
			return err
		}
		if err := es.s.Restore(snap.NewDecoder(b)); err != nil {
			return fmt.Errorf("core: restoring section %q: %w", es.name, err)
		}
	}
	if b, err = ck.Section("network"); err != nil {
		return err
	}
	if err := k.net.Restore(snap.NewDecoder(b)); err != nil {
		return fmt.Errorf("core: restoring network: %w", err)
	}
	if err := k.restoreObs(ck); err != nil {
		return err
	}
	// Rebuild derivable state, then re-verify everything the file did not
	// carry: effective times, scheduler index, queue caches, counters.
	k.refreshEff()
	k.schedRebuild()
	if err := k.Validate(); err != nil {
		return fmt.Errorf("core: restored state failed validation: %w", err)
	}
	k.paused = false
	return nil
}

// restore reads one domain section (the inverse of domain.snapshot).
func (d *domain) restore(dec *snap.Decoder) error {
	var err error
	if d.live, err = dec.Varint(); err != nil {
		return err
	}
	if d.maxTime, err = dec.Time(); err != nil {
		return err
	}
	var rmax int64
	for _, f := range []*int64{&d.stepsTotal, &d.oooMsgs, &d.handled, &d.runnableSum, &d.runnableSamples, &rmax} {
		if *f, err = dec.Varint(); err != nil {
			return err
		}
	}
	d.runnableMax = int(rmax)
	d.busy = 0
	for _, c := range d.cores {
		if err := c.restore(dec); err != nil {
			return fmt.Errorf("core %d: %w", c.ID, err)
		}
		if !c.idle {
			d.busy++
		}
	}
	nblocked, err := dec.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nblocked; i++ {
		coreID, err := dec.Uvarint()
		if err != nil {
			return err
		}
		if coreID >= uint64(len(d.k.cores)) || d.k.cores[coreID].dom != d {
			return fmt.Errorf("blocked task on foreign core %d", coreID)
		}
		t, err := d.k.decodeTask(dec, d.k.cores[coreID], TaskBlocked)
		if err != nil {
			return err
		}
		d.blocked[t.ID] = t
	}
	return nil
}

// restore reads one core record (the inverse of Core.snapshot).
func (c *Core) restore(dec *snap.Decoder) error {
	var err error
	if c.vt, err = dec.Time(); err != nil {
		return err
	}
	if c.idle, err = dec.Bool(); err != nil {
		return err
	}
	var v int64
	if v, err = dec.Varint(); err != nil {
		return err
	}
	c.lockDepth = int(v)
	if c.taskSeq, err = dec.Uvarint(); err != nil {
		return err
	}
	if c.lastHandled, err = dec.Time(); err != nil {
		return err
	}
	rs, err := dec.Uvarint()
	if err != nil {
		return err
	}
	c.rng.SetState(rs)
	ptag, err := dec.Uvarint()
	if err != nil {
		return err
	}
	switch ptag {
	case 1:
		pst, err := dec.Uvarint()
		if err != nil {
			return err
		}
		p, ok := c.timer.Predictor.(*timing.ProbabilisticPredictor)
		if !ok {
			return errors.New("checkpoint has a probabilistic predictor, kernel does not")
		}
		p.SetRngState(pst)
	case 2:
		if c.timer.Predictor != nil {
			return errors.New("checkpoint has no predictor, kernel does")
		}
	default:
		return errors.New("opaque predictor in a decode-mode checkpoint")
	}
	st := &c.stats
	for _, f := range []*int64{&st.Blocks, &st.Instructions, &st.Stalls, &st.TaskStarts, &st.Switches, &st.MsgsSent} {
		if *f, err = dec.Varint(); err != nil {
			return err
		}
	}
	for _, f := range []*vtime.Time{&st.ComputeTime, &st.MemTime, &st.StallWaitTime} {
		if *f, err = dec.Time(); err != nil {
			return err
		}
	}
	nb, err := dec.Uvarint()
	if err != nil {
		return err
	}
	c.births = nil
	for i := uint64(0); i < nb; i++ {
		id, err := dec.Uvarint()
		if err != nil {
			return err
		}
		stamp, err := dec.Time()
		if err != nil {
			return err
		}
		c.addBirth(id, stamp)
	}
	c.birthDirty = true
	if err := c.l1.Restore(dec); err != nil {
		return err
	}
	if err := c.l2.Restore(dec); err != nil {
		return err
	}
	hasCur, err := dec.Bool()
	if err != nil {
		return err
	}
	if hasCur {
		if c.current, err = c.k.decodeTask(dec, c, TaskRunning); err != nil {
			return err
		}
	}
	nc, err := dec.Uvarint()
	if err != nil {
		return err
	}
	c.conts = nil
	for i := uint64(0); i < nc; i++ {
		t, err := c.k.decodeTask(dec, c, TaskReady)
		if err != nil {
			return err
		}
		c.conts = append(c.conts, t)
	}
	c.contsMinDirty = len(c.conts) > 0
	if len(c.conts) == 0 {
		c.contsMin = vtime.Inf
	}
	nr, err := dec.Uvarint()
	if err != nil {
		return err
	}
	c.ready = nil
	for i := uint64(0); i < nr; i++ {
		t, err := c.k.decodeTask(dec, c, TaskReady)
		if err != nil {
			return err
		}
		c.ready = append(c.ready, t)
	}
	c.readyMinDirty = len(c.ready) > 0
	if len(c.ready) == 0 {
		c.readyMin = vtime.Inf
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
		return err
	}
	for _, d := range k.domains {
		if d.traceSeq, err = dec.Uvarint(); err != nil {
			return err
		}
	}
	if k.met != nil {
		b, ok := ck.Sections["obs.metrics"]
		if !ok {
			return errors.New("core: kernel has a metrics registry but the checkpoint carries none")
		}
		if err := k.met.reg.RestoreState(snap.NewDecoder(b)); err != nil {
			return fmt.Errorf("core: restoring metrics: %w", err)
		}
	}
	return nil
}
