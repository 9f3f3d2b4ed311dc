package rt

import (
	"sync/atomic"

	"simany/internal/core"
	"simany/internal/network"
	"simany/internal/vtime"
)

// Group provides the coarse synchronization of §IV: tasks are spawned into
// a group; each terminating task decrements the group's active counter; a
// task calling Join waits until the counter reaches zero, woken by a
// JOINER_REQUEST from the last finishing task.
//
// Under the sharded engine every group has a fixed arbitration core
// (home): its counter and joiner state are only touched from the home
// core's shard or inside a barrier, so members terminating on any shard
// stay race-free. Counter increments are enqueued before the corresponding
// TASK_SPAWN with an earlier-or-equal stamp, so a member's decrement can
// never be applied ahead of its increment.
type Group struct {
	r       *Runtime //simany:derived backpointer to the owning runtime
	home    int      // arbitration core; all state below is home-shard-owned
	active  int
	joiner  *core.Task
	waiting bool
	lastEnd vtime.Time // latest member termination stamp seen
}

// NewGroup creates an empty task group, arbitrated at the runtime's root
// core.
func (r *Runtime) NewGroup() *Group {
	return &Group{r: r, home: r.opt.RootCore}
}

// Active returns the number of unfinished tasks in the group. Under
// sharded execution it is only meaningful from the group's home shard
// (benchmarks read it from the joining task after Join returns).
func (g *Group) Active() int { return g.active }

// addFrom increments the counter on behalf of core me at the given stamp.
// The home-shard fast path is checked inline (rather than through runAt) so
// the deferral closure is only materialized when the call actually crosses
// shards — group traffic is on the spawn hot path.
func (g *Group) addFrom(me int, stamp vtime.Time, n int) {
	if !g.r.k.Sharded() || g.r.k.SameShard(me, g.home) {
		g.active += n
		return
	}
	g.r.k.Defer(me, stamp, func() { g.active += n })
}

// taskEnded runs in the terminating task's context (on its core).
func (g *Group) taskEnded(e *core.Env) {
	me := e.CoreID()
	now := e.Now()
	if !g.r.k.Sharded() || g.r.k.SameShard(me, g.home) {
		//lint:allow homeshard the branch above is runAt's home-context guard, inlined to keep the closure off the same-shard hot path
		g.ended(me, now)
		return
	}
	g.r.k.Defer(me, now, func() { g.ended(me, now) })
}

// ended applies one member termination; home-shard context only.
//
//simany:homeshard
func (g *Group) ended(coreID int, now vtime.Time) {
	g.active--
	if g.active < 0 {
		panic("rt: group counter underflow")
	}
	if now > g.lastEnd {
		g.lastEnd = now
	}
	if g.active == 0 && g.waiting {
		// Notify the joiner from this core (the paper's JOINER_REQUEST
		// from the task that decremented the counter last). The waiting
		// state is consumed here, in home context, so the (possibly
		// foreign-shard) joiner never has to write group state.
		j := g.joiner
		g.waiting = false
		g.joiner = nil
		g.r.k.SendAt(coreID, j.Core().ID, KindJoinerRequest, g.r.opt.JoinerSize, j, now)
	}
}

// Join waits for every task in the group to finish. If all tasks already
// terminated, the caller's clock is advanced to the latest termination
// stamp (the notification it would have waited for); otherwise the task
// blocks, freeing its core, and resumes on the JOINER_REQUEST with the
// usual context-switch cost.
func (r *Runtime) Join(e *core.Env, g *Group) {
	e.ComputeCycles(1) // counter check
	me := e.CoreID()
	if !r.k.Sharded() || r.k.SameShard(me, g.home) {
		if g.active == 0 {
			if g.lastEnd > e.Now() {
				e.ComputeTime(g.lastEnd - e.Now())
			}
			return
		}
		if g.waiting {
			panic("rt: a group supports a single joiner")
		}
		g.joiner = e.Task()
		g.waiting = true
		atomic.AddInt64(&r.stats.JoinWaits, 1)
		e.Block()
		g.waiting = false
		g.joiner = nil
		return
	}
	// Foreign-shard joiner: the counter check must happen in home context.
	t := e.Task()
	now := e.Now()
	atomic.AddInt64(&r.stats.JoinWaits, 1)
	r.k.Defer(me, now, func() {
		if g.active == 0 {
			at := now
			if g.lastEnd > at {
				at = g.lastEnd
			}
			r.k.Unblock(t, at) // applied at the barrier: safe for any shard
			return
		}
		if g.waiting {
			panic("rt: a group supports a single joiner")
		}
		g.joiner = t
		g.waiting = true
	})
	e.Block()
}

// onJoinerRequest wakes the joining task.
func (r *Runtime) onJoinerRequest(k *core.Kernel, msg network.Message) {
	k.Unblock(msg.Payload.(*core.Task), msg.Arrival)
}
