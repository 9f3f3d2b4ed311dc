package rt

import (
	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/network"
	"simany/internal/vtime"
)

// Distributed-memory shared data (§IV): cells referenced by links. Every
// access is exclusive — the runtime transfers the cell contents to the
// accessing core (whether the access is a read or a write, §VI "Simulation
// Speed") and keeps the cell locked for the access duration.
//
// Two acquisition protocols share the cell state:
//
//   - Sequential engine: the original owner-chasing protocol. The accessor
//     reads the cell's owner directly and sends DATA_REQUEST to it; if the
//     cell moved, the request is forwarded (a "chase").
//   - Sharded engine: a home-based directory protocol. Each cell's
//     creating core is its immutable home; all lock/ownership decisions are
//     made in the home core's shard (or inside a barrier, which is
//     single-threaded), so concurrent accessors on other shards never read
//     or write arbitration state directly. Grants are final — no retry
//     loop — and ownership transfers split their cache effects across
//     contexts: the eviction happens where the decision is made (barrier or
//     owner's shard) and the installation happens in the destination core's
//     DATA_RESPONSE handler.

// cellWaiter is a deferred access request parked on a locked cell.
type cellWaiter struct {
	task *core.Task
	core int
}

// NewCell creates a shared cell of size bytes owned by the calling core and
// returns its link. The creation is charged as a local L2 installation.
func (r *Runtime) NewCell(e *core.Env, size int, data any) mem.Link {
	l := r.cells.New(e.CoreID(), size, data)
	c := r.cells.Get(l)
	e.Kernel().Core(e.CoreID()).L2().Install(c.Addr(), int64(size))
	e.ComputeCycles(2) // allocation bookkeeping
	return l
}

// CellData peeks at a cell's payload without simulated cost. It is intended
// for result verification after the simulation, not for simulated program
// logic.
func (r *Runtime) CellData(l mem.Link) any {
	return r.cells.Get(l).Data()
}

// Access performs an exclusive access to the cell behind l from the current
// task: it acquires the cell (moving its contents into this core's L2 if
// they are remote), runs f on the payload, stores f's non-nil result back,
// and releases the cell. While the cell is held the core is exempt from
// spatial stalling, as any lock holder (§II.B).
func (r *Runtime) Access(e *core.Env, l mem.Link, f func(data any) any) {
	cell := r.cells.Get(l)
	me := e.CoreID()
	taskID := e.Task().ID

	if r.k.Sharded() {
		r.acquireSharded(e, cell, l)
	} else {
		r.acquireSeq(e, cell, l)
	}

	e.AcquireLockExempt()
	// The data now sit in the local L2; charge the access.
	words := int64((cell.Size() + 7) / 8)
	e.Read(cell.Addr(), words, 8)
	if out := f(cell.Data()); out != nil {
		cell.SetData(out)
		e.Write(cell.Addr(), words, 8)
	}
	// Unlock and grant atomically: ReleaseLockExempt may stall the core
	// (re-enabling spatial synchronization can yield), and another task
	// scheduled during that stall must not be able to barge past the
	// queued waiters.
	now := e.Now()
	if r.k.Sharded() {
		r.runAt(me, cell.Home(), now, func() {
			cell.Unlock(taskID)
			r.grantNextSharded(cell, l, me, now)
		})
	} else {
		cell.Unlock(taskID)
		r.grantNext(cell, me, now)
	}
	e.ReleaseLockExempt()
}

// acquireSeq is the sequential engine's owner-chasing acquisition loop.
func (r *Runtime) acquireSeq(e *core.Env, cell *mem.Cell, l mem.Link) {
	me := e.CoreID()
	taskID := e.Task().ID
	for {
		if cell.Owner() == me && !cell.Locked() {
			cell.Lock(taskID)
			return
		}
		if cell.Owner() == me {
			// Locked by another task (possibly on this very core): queue
			// and wait for the grant.
			cell.PushWaiter(&cellWaiter{task: e.Task(), core: me})
			e.Block()
			// The granter locked the cell for us and moved it here.
			if cell.Owner() == me && cell.LockHolder() == taskID {
				return
			}
			continue // ownership raced away; retry
		}
		// Remote: request the data from the current owner.
		r.count(r.ctr.dataReqs, me)
		e.Send(cell.Owner(), KindDataRequest, r.opt.DataReqSize,
			&dataReq{link: l, requester: e.Task(), reqCore: me})
		e.Block()
		if cell.Owner() == me && cell.LockHolder() == taskID {
			return
		}
		// The grant raced away (or was re-queued); try again.
	}
}

// acquireSharded acquires the cell through its home shard. Grants are
// final: once the task wakes, it owns the locked cell.
func (r *Runtime) acquireSharded(e *core.Env, cell *mem.Cell, l mem.Link) {
	me := e.CoreID()
	t := e.Task()
	now := e.Now()
	if r.k.SameShard(me, cell.Home()) {
		// Home context: arbitration state is directly accessible.
		if cell.Locked() {
			cell.PushWaiter(&cellWaiter{task: t, core: me})
			e.Block()
		} else if cell.Owner() == me {
			cell.Lock(t.ID)
		} else {
			// Claim now; move the data at the barrier — the current
			// owner's L2 may belong to another shard.
			cell.Lock(t.ID)
			r.count(r.ctr.dataReqs, me)
			from := cell.Owner()
			r.k.Defer(me, now, func() {
				r.transferSharded(cell, l, from, me, t, now)
			})
			e.Block()
		}
	} else {
		r.count(r.ctr.dataReqs, me)
		r.k.Defer(me, now, func() { r.arbitrateSharded(cell, l, t, me, now) })
		e.Block()
	}
	if cell.Owner() != me || cell.LockHolder() != t.ID {
		panic("rt: cell grant mismatch")
	}
}

// arbitrateSharded decides a foreign-shard access request; in-barrier only.
//
//simany:homeshard
func (r *Runtime) arbitrateSharded(cell *mem.Cell, l mem.Link, t *core.Task, reqCore int, now vtime.Time) {
	if cell.Locked() {
		cell.PushWaiter(&cellWaiter{task: t, core: reqCore})
		return
	}
	cell.Lock(t.ID)
	if cell.Owner() == reqCore {
		// Data already resident from an earlier access: charge only the
		// directory round trip.
		r.k.Unblock(t, now+r.opt.DataHandleCost)
		return
	}
	r.transferSharded(cell, l, cell.Owner(), reqCore, t, now)
}

// grantNextSharded hands a just-unlocked cell to its oldest waiter;
// home-shard context only.
//
//simany:homeshard
func (r *Runtime) grantNextSharded(cell *mem.Cell, l mem.Link, holderCore int, now vtime.Time) {
	w, ok := cell.PopWaiter()
	if !ok {
		return
	}
	cw := w.(*cellWaiter)
	cell.Lock(cw.task.ID)
	if cw.core == holderCore {
		r.k.UnblockFrom(holderCore, cw.task, now+r.opt.DataHandleCost)
		return
	}
	r.transferSharded(cell, l, holderCore, cw.core, cw.task, now)
}

// transferSharded moves cell contents between cores for the sharded
// protocol. It must run either in-barrier or in the owning core's shard:
// the eviction touches from's L2, while the destination install (and the
// requester wake-up) happen in to's DATA_RESPONSE handler. The request leg
// the sequential protocol would send is approximated by the uncontended
// network distance; the response leg is priced by the send itself.
//
//simany:homeshard
func (r *Runtime) transferSharded(cell *mem.Cell, l mem.Link, from, to int, task *core.Task, at vtime.Time) {
	r.k.Core(from).EvictL2(cell.Addr(), int64(cell.Size()))
	cell.SetOwner(to)
	reqLeg := r.k.Network().MinLatency(to, from, r.opt.DataReqSize)
	r.k.SendAt(from, to, KindDataResponse, cell.Size(),
		&dataReq{link: l, requester: task, reqCore: to},
		at+reqLeg+r.opt.DataHandleCost)
}

// grantNext hands a just-unlocked cell to its oldest waiter, transferring
// ownership if the waiter sits on another core (sequential engine).
func (r *Runtime) grantNext(cell *mem.Cell, holderCore int, now vtime.Time) {
	w, ok := cell.PopWaiter()
	if !ok {
		return
	}
	cw := w.(*cellWaiter)
	cell.Lock(cw.task.ID)
	if cw.core == holderCore {
		// Same core: no transfer, wake directly with a small handoff.
		r.k.Unblock(cw.task, now+r.opt.DataHandleCost)
		return
	}
	r.transferCell(cell, holderCore, cw.core, cw.task, now)
}

// transferCell moves cell contents from one core to another and wakes the
// requesting task with a DATA_RESPONSE sized by the cell payload
// (sequential engine: install happens inline, the response carries no
// link).
func (r *Runtime) transferCell(cell *mem.Cell, from, to int, task *core.Task, at vtime.Time) {
	r.k.Core(from).EvictL2(cell.Addr(), int64(cell.Size()))
	cell.SetOwner(to)
	r.k.SendAt(from, to, KindDataResponse, cell.Size(),
		&dataReq{link: mem.Link{}, requester: task, reqCore: to},
		at+r.opt.DataHandleCost)
	r.k.Core(to).L2().Install(cell.Addr(), int64(cell.Size()))
}

// onDataRequest runs at the cell owner (sequential engine only — the
// sharded protocol arbitrates at the home shard instead of messaging the
// owner): grant immediately if the cell is free, defer if it is locked,
// forward if the cell has moved.
func (r *Runtime) onDataRequest(k *core.Kernel, msg network.Message) {
	req := msg.Payload.(*dataReq)
	cell := r.cells.Get(req.link)
	here := msg.Dst
	if cell.Owner() != here {
		// The cell moved: chase it.
		r.count(r.ctr.dataChases, here)
		k.SendAt(here, cell.Owner(), KindDataRequest, msg.Size, req,
			msg.Arrival+r.opt.DataHandleCost)
		return
	}
	if cell.Locked() {
		cell.PushWaiter(&cellWaiter{task: req.requester, core: req.reqCore})
		return
	}
	cell.Lock(req.requester.ID)
	r.transferCell(cell, here, req.reqCore, req.requester, msg.Arrival)
}

// onDataResponse wakes the requester once the cell contents arrive. For
// sharded transfers (link set) it also installs the payload into the
// receiving core's L2 — the handler runs in that core's shard context, so
// the cache mutation is local.
func (r *Runtime) onDataResponse(k *core.Kernel, msg network.Message) {
	req := msg.Payload.(*dataReq)
	if !req.link.Nil() {
		cell := r.cells.Get(req.link)
		k.Core(msg.Dst).L2().Install(cell.Addr(), int64(cell.Size()))
	}
	k.Unblock(req.requester, msg.Arrival)
}
