package core

import (
	"sort"

	"simany/internal/vtime"
)

// TraceKind classifies simulator trace events.
type TraceKind uint8

const (
	// TraceTaskStart: a fresh task begins executing on a core.
	TraceTaskStart TraceKind = iota
	// TraceTaskResume: a blocked task's continuation resumes (context
	// switch).
	TraceTaskResume
	// TraceTaskStall: a task yields because its core hit the policy
	// horizon.
	TraceTaskStall
	// TraceTaskBlock: a task parks waiting for a message.
	TraceTaskBlock
	// TraceTaskEnd: a task finishes.
	TraceTaskEnd
	// TraceSend: an architectural message is emitted.
	TraceSend
	// TraceHandle: a message handler runs at its destination.
	TraceHandle
	// TraceUnblock: a blocked task is made runnable.
	TraceUnblock
)

//lint:allow snapshotsafe immutable lookup table, written nowhere
var traceKindNames = [...]string{
	"task-start", "task-resume", "task-stall", "task-block", "task-end",
	"send", "handle", "unblock",
}

// String names the kind.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return "unknown"
}

// TraceEvent is one record of simulator activity. VT is the core's virtual
// time at the event; Seq is the order in which the tracer observed the
// event. On the sequential engine that is the simulation order; on the
// sharded engine events are buffered per shard and delivered at each
// virtual-time barrier in merged (VT, Core, per-shard order) order, with
// Seq renumbered globally over the merged stream. Either way Seq is
// strictly increasing and dense, and for a fixed (seed, shards)
// configuration the full stream is bitwise identical at every worker
// count.
type TraceEvent struct {
	Seq    uint64
	Kind   TraceKind
	VT     vtime.Time
	Core   int
	TaskID uint64
	Task   string
	// Aux carries a kind-specific value: destination core for TraceSend,
	// source core for TraceHandle, wake stamp for TraceUnblock.
	Aux int64
}

// Tracer receives simulator trace events. Implementations must be cheap:
// the kernel calls them on the hot path when tracing is enabled.
type Tracer interface {
	Trace(TraceEvent)
}

// emit records a trace event if tracing is enabled.
//
// On the sequential engine the event goes straight to the tracer with a
// global sequence number. On the sharded engine it is appended, lock-free,
// to the buffer of the shard owning the event's core: every emit site runs
// either on the worker currently driving that shard (lifecycle events and
// intra-shard deliveries never cross the partition) or inside the
// single-threaded barrier, so no two host threads ever touch one buffer
// concurrently. Buffers are merged and handed to the tracer at the next
// barrier (flushTrace).
func (k *Kernel) emit(kind TraceKind, vt vtime.Time, core int, t *Task, aux int64) {
	if k.tracer == nil {
		return
	}
	ev := TraceEvent{Kind: kind, VT: vt, Core: core, Aux: aux}
	if t != nil {
		ev.TaskID = t.ID
		ev.Task = t.Name
	}
	if k.sharded {
		d := k.cores[core].dom
		d.traceSeq++
		ev.Seq = d.traceSeq
		d.traceBuf = append(d.traceBuf, ev)
		return
	}
	k.traceSeq++
	ev.Seq = k.traceSeq
	k.tracer.Trace(ev)
}

// flushTrace merges the per-shard trace buffers accumulated since the
// previous barrier and delivers them to the tracer in deterministic
// (VT, Core, per-shard Seq) order, renumbering Seq globally. Each shard's
// buffer content is fixed by the round semantics (never by host
// scheduling), and the sort key is a total order — Core determines the
// producing shard and the per-shard Seq is unique within it — so the
// delivered stream is bitwise identical at every worker count. The tracer
// callback runs single-threaded, between rounds, which is also what makes
// ValidatingTracer safe on the sharded engine.
//
// Within one barrier epoch events are VT-sorted; across epochs VT can
// step back by at most the round quantum (a later round may revisit
// earlier virtual time on other cores), which is the same bounded
// out-of-order window the engine's drift bound allows.
//
//simany:barrier
func (k *Kernel) flushTrace() {
	if k.tracer == nil || !k.sharded {
		return
	}
	n := 0
	for _, d := range k.domains {
		n += len(d.traceBuf)
	}
	if n == 0 {
		return
	}
	merged := k.traceMerge[:0]
	for _, d := range k.domains {
		merged = append(merged, d.traceBuf...)
		// Unpin task-name strings held by the reused per-shard buffer.
		clear(d.traceBuf)
		d.traceBuf = d.traceBuf[:0]
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := &merged[i], &merged[j]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		return a.Seq < b.Seq
	})
	for i := range merged {
		k.traceSeq++
		merged[i].Seq = k.traceSeq
		k.tracer.Trace(merged[i])
	}
	clear(merged)
	k.traceMerge = merged[:0]
}

// SetTracer installs (or removes, with nil) the event tracer. Tracing
// costs the parallel engine nothing but the buffer appends: on a sharded
// kernel events are collected per shard and merged deterministically at
// each virtual-time barrier. Install the tracer before Run to capture the
// full stream.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }
