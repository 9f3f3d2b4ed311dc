package core

import (
	"fmt"
	"iter"
	"runtime/debug"

	"simany/internal/network"
	"simany/internal/timing"
	"simany/internal/vtime"
)

// TaskState describes the lifecycle of a task.
type TaskState int

const (
	// TaskReady is a task queued on a core but not yet started.
	TaskReady TaskState = iota
	// TaskRunning is the task currently holding (or stalled on) its core.
	TaskRunning
	// TaskBlocked is a task parked in Block, waiting for Unblock.
	TaskBlocked
	// TaskDone is a finished task.
	TaskDone
)

// Task is one unit of parallel work. Tasks are created by the task runtime
// (or directly for tests), placed on a core, and executed as a coroutine
// multiplexed on the core's virtual clock.
type Task struct {
	// ID is a kernel-unique identifier.
	ID uint64
	// Name labels the task for traces and deadlock reports.
	Name string
	// Meta is reserved for the task runtime layered above the kernel.
	Meta any

	fn   func(*Env)
	core *Core
	//simany:derived implied by which queue holds the task, and the queues are encoded
	state   TaskState
	arrival vtime.Time // stamp at which the task may start
	resume  vtime.Time // wake stamp set by Unblock
	//simany:derived only meaningful for TaskDone tasks, which never appear in a checkpoint
	endVT vtime.Time

	started     bool
	pendingWake bool // Unblock arrived before the task reached Block
	release     bool // recycle the struct into the task pool at Done

	// worker is the coroutine running the task body, from the task's first
	// step (domain.startTask) until it ends or the run fails.
	worker *taskWorker //simany:derived parked coroutine identity, host-side only; the replay parks its own
	env    Env         //simany:derived built by startTask from the owning kernel and core
}

// ReleaseOnDone marks the task's struct for recycling into the kernel's
// task pool the moment it finishes: the first NewTask on the shard where it
// ended may reuse the allocation under a fresh identity. Callers must not
// retain the *Task (or read State/EndVT) after completion. The task runtime
// opts in for every task it creates — it never hands task handles out —
// while tasks created directly (tests, InjectTask entry points) stay
// un-recycled by default so held handles remain valid. Returns t for
// chaining.
func (t *Task) ReleaseOnDone() *Task {
	t.release = true
	return t
}

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// Core returns the core the task is placed on.
func (t *Task) Core() *Core { return t.core }

// EndVT returns the virtual time at which the task finished (valid once
// Done).
func (t *Task) EndVT() vtime.Time { return t.endVT }

type yieldKind int

const (
	yieldStalled yieldKind = iota
	yieldBlocked
	yieldDone
)

// Env is the interface a task's code uses to interact with the simulator:
// timing annotations, memory accesses and messaging. Exactly one Env is
// active at any instant.
type Env struct {
	k *Kernel
	t *Task
	c *Core

	horizon vtime.Time // current policy horizon for the core
}

// Kernel returns the owning kernel.
func (e *Env) Kernel() *Kernel { return e.k }

// CoreID returns the index of the core the task runs on.
func (e *Env) CoreID() int { return e.c.ID }

// Task returns the running task.
func (e *Env) Task() *Task { return e.t }

// Now returns the core's current virtual time.
func (e *Env) Now() vtime.Time { return e.c.vt }

// advance adds a computing duration to the core's clock, scaled by core
// speed, then enforces the policy horizon.
func (e *Env) advance(cost vtime.Time) {
	if cost < 0 {
		panic("core: negative compute cost")
	}
	if e.c.Speed != 1.0 {
		cost = cost.Scale(1.0 / e.c.Speed)
	}
	e.c.vt += cost
	e.c.stats.ComputeTime += cost
	e.checkHorizon()
}

// checkHorizon yields as stalled while the core sits beyond its policy
// horizon.
func (e *Env) checkHorizon() {
	for e.c.vt > e.horizon {
		e.c.stats.Stalls++
		e.yield(yieldStalled)
	}
}

// Compute executes an annotated instruction block: the per-class costs
// plus probabilistic branch misprediction penalties (§II.A "Timing
// annotations").
func (e *Env) Compute(counts timing.Counts) {
	e.c.stats.Blocks++
	e.c.stats.Instructions += counts.Total()
	e.advance(e.c.timer.Time(counts))
}

// ComputeCycles advances the clock by a raw cycle count (coarse manual
// annotation).
func (e *Env) ComputeCycles(cycles float64) {
	if cycles < 0 {
		panic("core: negative compute cost")
	}
	e.c.stats.Blocks++
	e.advance(vtime.Cycles(cycles))
}

// ComputeTime advances the clock by a raw duration.
func (e *Env) ComputeTime(d vtime.Time) {
	e.c.stats.Blocks++
	e.advance(d)
}

// EnterScope opens a function scope for the pessimistic L1 model.
func (e *Env) EnterScope() { e.c.l1.Enter() }

// LeaveScope closes a function scope, discarding L1 contents (§V).
func (e *Env) LeaveScope() { e.c.l1.Leave() }

// Read performs n data reads of elem bytes starting at base through the
// configured memory system.
func (e *Env) Read(base uint64, n int64, elem int) {
	e.access(base, n, elem, false)
}

// Write performs n data writes of elem bytes starting at base.
func (e *Env) Write(base uint64, n int64, elem int) {
	e.access(base, n, elem, true)
}

func (e *Env) access(base uint64, n int64, elem int, write bool) {
	if n <= 0 {
		return
	}
	d := e.k.mem.Access(e.c, base, n, elem, write, e.c.vt)
	if d < 0 {
		panic("core: memory system returned negative delay")
	}
	e.c.vt += d
	e.c.stats.MemTime += d
	e.checkHorizon()
}

// Send emits an architectural message from this core at the current
// virtual time. The destination's registered handler runs immediately
// (timing is carried by the embedded stamps). It returns the routed
// message with its arrival time.
func (e *Env) Send(dst int, kind network.Kind, size int, payload any) network.Message {
	return e.k.send(network.Message{
		Src:     e.c.ID,
		Dst:     dst,
		Kind:    kind,
		Size:    size,
		Payload: payload,
		Stamp:   e.c.vt,
	})
}

// Block parks the task until a handler calls Kernel.Unblock for it; the
// core is free to run other resident tasks meanwhile. It returns the wake
// stamp passed to Unblock; the core clock has already been advanced to at
// least that stamp (plus the context-switch cost if another task ran in
// between).
func (e *Env) Block() vtime.Time {
	if e.t.pendingWake {
		// The wake-up message was handled while this task was still
		// running (handlers run synchronously at send time): the reply is
		// already there, so the task just waits in place until its
		// arrival stamp without freeing the core.
		e.t.pendingWake = false
		e.c.vt = vtime.Max(e.c.vt, e.t.resume)
		e.checkHorizon()
		return e.t.resume
	}
	e.yield(yieldBlocked)
	return e.t.resume
}

// Yield relinquishes the core so the kernel can re-evaluate scheduling; the
// task remains runnable. It is primarily useful in tests and in spin-style
// waiting loops.
func (e *Env) Yield() {
	e.c.stats.Stalls++
	e.yield(yieldStalled)
}

// AcquireLockExempt marks the core as holding one more lock. While a core
// holds locks it is exempt from spatial stalling so it can always reach the
// release point (§II.B "Locks and critical sections").
func (e *Env) AcquireLockExempt() {
	e.c.lockDepth++
	e.horizon = e.k.horizonFor(e.c)
}

// ReleaseLockExempt undoes AcquireLockExempt.
func (e *Env) ReleaseLockExempt() {
	if e.c.lockDepth == 0 {
		panic("core: lock depth underflow")
	}
	e.c.lockDepth--
	e.horizon = e.k.horizonFor(e.c)
	e.checkHorizon()
}

// yield switches back to the kernel (the next call in domain.step) and
// returns when the kernel resumes the task. The worker's yield reports
// false once the kernel has stopped the worker: the body is then unwound.
func (e *Env) yield(kind yieldKind) {
	if !e.t.worker.yield(kind) {
		panic(workerStopped{})
	}
	e.horizon = e.k.horizonFor(e.c)
}

// workerStopped is the panic value that unwinds a task body parked
// mid-execution when its worker is stopped; Task.run swallows it.
type workerStopped struct{}

// run executes the task body to completion and reports whether the worker
// was stopped under it. A panic in the body is surfaced to the kernel as
// an error and otherwise ends the task like a return.
func (t *Task) run() (stopped bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case workerStopped:
			stopped = true
		default:
			c := t.env.c
			t.env.k.setPanic(fmt.Errorf("task %q (id %d) on core %d at vt %v panicked: %v\n%s",
				t.Name, t.ID, c.ID, c.vt, r, debug.Stack()))
		}
	}()
	t.fn(&t.env)
	return false
}

// taskWorker is a pooled coroutine (iter.Pull) that runs successive task
// bodies: the kernel resumes it with next and the body hands control back
// with yield, each a direct stack switch — no channel, no pass through the
// goroutine scheduler. A worker is either executing (or parked inside)
// exactly one task's body, or parked in yield(yieldDone) in a domain's
// free pool awaiting the next assignment; stop ends it from either state.
type taskWorker struct {
	// task is the current assignment, written only by the kernel while the
	// worker is parked (the switch orders it against the worker's read).
	task  *Task
	next  func() (yieldKind, bool)
	yield func(yieldKind) bool
	stop  func()
}

func newTaskWorker() *taskWorker {
	w := &taskWorker{}
	w.next, w.stop = iter.Pull(func(yield func(yieldKind) bool) {
		w.yield = yield
		for !w.task.run() && yield(yieldDone) {
		}
	})
	return w
}
