package rt

import (
	"simany/internal/core"
	"simany/internal/snap"
)

// The runtime participates in kernel checkpoints in two roles:
//
//   - as the task codec: it serializes each task's runtime Meta (the state
//     of its group, a stashed probe reply). Task bodies are closures and
//     are not serialized; restore re-executes them (core's verified
//     replay), and these bytes are what the replayed state is compared to.
//   - as the "rt" section: occupancy proxies, probe reservations,
//     round-robin cursors and the allocator/cell-store cursors — every
//     piece of runtime state not reachable through a task. The runtime
//     counters are in the kernel registry's section.

// taskCodec implements core.TaskCodec for the runtime.
type taskCodec struct{}

// EncodeTask implements core.TaskCodec: a flag telling a runtime task from
// a foreign one (tests place tasks directly), then the Meta.
func (taskCodec) EncodeTask(enc *snap.Encoder, t *core.Task) {
	m, ok := t.Meta.(*taskMeta)
	enc.Bool(ok)
	if ok {
		encodeMeta(enc, m)
	}
}

// encodeMeta appends the runtime Meta: the task's group, written by value
// with each member since groups have no identity outside the closures that
// hold them, and any stashed probe reply (a wake delivered before the task
// resumed).
func encodeMeta(enc *snap.Encoder, m *taskMeta) {
	g := m.group
	enc.Bool(g != nil)
	if g != nil {
		enc.Uvarint(uint64(g.home))
		enc.Varint(int64(g.active))
		enc.Bool(g.waiting)
		enc.Time(g.lastEnd)
		var joiner uint64
		if g.joiner != nil {
			joiner = g.joiner.ID
		}
		enc.Uvarint(joiner)
	}
	enc.Bool(m.probe.delivered)
	if m.probe.delivered {
		enc.Bool(m.probe.ok)
		enc.Varint(int64(m.probe.queueLen))
		enc.Uvarint(uint64(m.probe.from))
	}
}

// ---------------------------------------------------------------------------
// The "rt" checkpoint section

// Snapshot implements snap.Snapshottable: the runtime state not reachable
// through any task. Runs at a pause point — no workers executing — so
// plain reads are safe.
func (r *Runtime) Snapshot(enc *snap.Encoder) {
	enc.Uvarint(uint64(len(r.occ)))
	for _, row := range r.occ {
		enc.Uvarint(uint64(len(row)))
		for _, v := range row {
			enc.Varint(int64(v))
		}
	}
	for _, v := range r.reservations {
		enc.Varint(int64(v))
	}
	for _, v := range r.rr {
		enc.Varint(int64(v))
	}
	r.alloc.Snapshot(enc)
	r.cells.Snapshot(enc)
}

var _ core.TaskCodec = taskCodec{}
var _ snap.Snapshottable = (*Runtime)(nil)
