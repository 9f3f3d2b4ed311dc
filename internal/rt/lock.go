package rt

import (
	"simany/internal/cache"
	"simany/internal/core"
	"simany/internal/vtime"
)

// Lock is a shared-memory mutex as used by the shared-memory benchmark
// versions (e.g. protecting graph-node tags in Connected Components). Lock
// acquisitions from different tasks may be simulated in any order — only
// per-task ordering matters for correctness (§II.B "Program execution
// correctness") — and a core running a task that holds a lock is exempt
// from spatial stalling so the deadlock scenario of Fig. 4 cannot occur.
//
// Under the sharded engine each lock is arbitrated at a home core derived
// from its address (like a directory entry homed by address hash): holder
// and waiter state are only mutated from the home core's shard or inside a
// barrier. A task on a foreign shard defers its acquire/release decision to
// the next barrier and blocks; grants wake it through the kernel's
// cross-shard unblock path. The holder may still read l.holder afterwards:
// while a task holds the lock no arbitration path writes it, and the grant
// write is ordered before the wake-up by the barrier.
type Lock struct {
	addr    uint64
	home    int    // arbitration core under sharded execution
	holder  uint64 // task ID, 0 when free
	waiters []*core.Task
}

// LockHandoffCost is the coherence-transfer delay charged when a lock moves
// between tasks (one shared-bank round trip).
//
//lint:allow snapshotsafe immutable configuration default, never written after init
var LockHandoffCost = vtime.CyclesInt(10)

// NewLock allocates a shared-memory lock.
func (r *Runtime) NewLock() *Lock {
	addr := r.alloc.Alloc(8)
	return &Lock{
		addr: addr,
		home: int(addr/cache.DefaultLineSize) % r.k.NumCores(),
	}
}

// AcquireLock takes the lock, blocking the task (and freeing its core)
// while another task holds it. The atomic read-modify-write on the lock
// word is charged through the memory system.
func (r *Runtime) AcquireLock(e *core.Env, l *Lock) {
	e.Write(l.addr, 1, 8)
	me := e.CoreID()
	t := e.Task()
	if r.k.SameShard(me, l.home) {
		if l.holder == 0 {
			l.holder = t.ID
			e.AcquireLockExempt()
			return
		}
		l.waiters = append(l.waiters, t)
		e.Block()
		if l.holder != t.ID {
			panic("rt: lock grant mismatch")
		}
		e.AcquireLockExempt()
		return
	}
	// Foreign shard: even the free/held test must happen in home context.
	now := e.Now()
	r.k.Defer(me, now, func() {
		if l.holder == 0 {
			l.holder = t.ID
			r.k.Unblock(t, now) // runs at the barrier: safe for any shard
			return
		}
		l.waiters = append(l.waiters, t)
	})
	e.Block()
	if l.holder != t.ID {
		panic("rt: lock grant mismatch")
	}
	e.AcquireLockExempt()
}

// ReleaseLock releases the lock and hands it to the oldest waiter, if any.
func (r *Runtime) ReleaseLock(e *core.Env, l *Lock) {
	if l.holder != e.Task().ID {
		panic("rt: release of lock not held by task")
	}
	e.Write(l.addr, 1, 8)
	e.ReleaseLockExempt()
	me := e.CoreID()
	now := e.Now()
	r.runAt(me, l.home, now, func() { r.handoff(l, me, now) })
}

// handoff passes the lock to the oldest waiter; home-shard context only.
//
//simany:homeshard
func (r *Runtime) handoff(l *Lock, releaser int, now vtime.Time) {
	if len(l.waiters) == 0 {
		l.holder = 0
		return
	}
	next := l.waiters[0]
	l.waiters = l.waiters[1:]
	l.holder = next.ID
	r.k.UnblockFrom(releaser, next, now+LockHandoffCost)
}

// TryAcquireLock takes the lock if it is free, without blocking. On a
// foreign shard the attempt costs a round trip to the next barrier: the
// task blocks until the home-context decision is applied.
func (r *Runtime) TryAcquireLock(e *core.Env, l *Lock) bool {
	e.Write(l.addr, 1, 8)
	me := e.CoreID()
	t := e.Task()
	if r.k.SameShard(me, l.home) {
		if l.holder != 0 {
			return false
		}
		l.holder = t.ID
		e.AcquireLockExempt()
		return true
	}
	now := e.Now()
	var got bool // written at the barrier, read only after the wake-up
	r.k.Defer(me, now, func() {
		if l.holder == 0 {
			l.holder = t.ID
			got = true
		}
		r.k.Unblock(t, now)
	})
	e.Block()
	if got {
		e.AcquireLockExempt()
	}
	return got
}
