package mem

// Cells are the distributed-memory shared-data objects of §IV: structures
// ("bearing similarity to C structures") referenced through Links,
// generalized pointers that can designate cells stored locally or
// remotely. The run-time system (package rt) moves cell contents between
// cores with DATA_REQUEST/DATA_RESPONSE messages and locks a cell for the
// duration of each access; this file provides the simulator-side store and
// the lock/ownership bookkeeping the runtime drives.

import "sync"

// Link is a generalized pointer to a cell.
type Link struct {
	id uint64
}

// Nil reports whether the link references no cell.
func (l Link) Nil() bool { return l.id == 0 }

// ID returns the raw cell identifier (0 for the nil link).
func (l Link) ID() uint64 { return l.id }

// Cell is one run-time-managed shared object.
type Cell struct {
	id    uint64
	owner int // core currently holding the data
	home  int // creating core; immutable, the cell's arbitration point
	size  int // payload bytes (drives message sizes)
	addr  uint64
	//simany:derived live Go payload with no codec; the replay recreates it, only the cell's structure is compared
	data any

	locked     bool
	lockHolder uint64 // task ID holding the lock
	// waiters are pending remote requests deferred until unlock; the
	// runtime drains them.
	waiters []any
}

// Owner returns the core currently owning the cell data.
func (c *Cell) Owner() int { return c.owner }

// Home returns the core that created the cell. It never changes, so the
// sharded runtime uses it as the cell's fixed arbitration point: all lock
// and transfer decisions for the cell are made in the home core's shard.
func (c *Cell) Home() int { return c.home }

// Size returns the payload size in bytes.
func (c *Cell) Size() int { return c.size }

// Addr returns the simulated base address of the cell payload.
func (c *Cell) Addr() uint64 { return c.addr }

// Data returns the payload.
func (c *Cell) Data() any { return c.data }

// SetData replaces the payload.
func (c *Cell) SetData(d any) { c.data = d }

// Locked reports whether the cell is locked.
func (c *Cell) Locked() bool { return c.locked }

// LockHolder returns the task holding the lock (0 if unlocked).
func (c *Cell) LockHolder() uint64 {
	if !c.locked {
		return 0
	}
	return c.lockHolder
}

// Lock marks the cell locked by task t. It panics if already locked: the
// runtime must serialize lock acquisition.
func (c *Cell) Lock(t uint64) {
	if c.locked {
		panic("mem: cell already locked")
	}
	c.locked = true
	c.lockHolder = t
}

// Unlock releases the lock held by task t.
func (c *Cell) Unlock(t uint64) {
	if !c.locked || c.lockHolder != t {
		panic("mem: unlock by non-holder")
	}
	c.locked = false
	c.lockHolder = 0
}

// SetOwner moves the data to another core.
func (c *Cell) SetOwner(core int) { c.owner = core }

// PushWaiter queues an opaque deferred request.
func (c *Cell) PushWaiter(w any) { c.waiters = append(c.waiters, w) }

// PopWaiter removes and returns the oldest deferred request.
func (c *Cell) PopWaiter() (any, bool) {
	if len(c.waiters) == 0 {
		return nil, false
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	return w, true
}

// CellStore is the global registry of cells for one simulation. The
// registry map is guarded by a read-write mutex (task bodies on different
// shards create and resolve cells concurrently); the cells themselves are
// protected by the runtime's home-shard arbitration, not by the store.
type CellStore struct {
	mu    sync.RWMutex
	cells map[uint64]*Cell
	next  uint64
	//simany:derived backpointer to the address allocator, which snapshots itself
	alloc *Allocator

	// arenas, when enabled, gives each creating core a private id range so
	// cell ids and addresses are deterministic under parallel execution.
	arenas map[int]uint64
}

// NewCellStore creates an empty store using alloc for simulated addresses.
func NewCellStore(alloc *Allocator) *CellStore {
	return &CellStore{cells: make(map[uint64]*Cell), alloc: alloc}
}

// EnableArenas switches New to per-creator id and address arenas. The
// sharded runtime enables it so that cells created concurrently on
// different shards get ids and addresses that depend only on the creating
// core's own allocation sequence. (The sequential engine keeps the
// original global sequence for bit-for-bit compatibility.)
func (s *CellStore) EnableArenas() {
	s.mu.Lock()
	s.arenas = make(map[int]uint64)
	s.mu.Unlock()
}

// New creates a cell of size bytes owned (and homed) by core, holding
// data, and returns a link to it.
func (s *CellStore) New(owner int, size int, data any) Link {
	s.mu.Lock()
	var id uint64
	if s.arenas != nil {
		s.arenas[owner]++
		id = arenaStride*uint64(owner+1) + s.arenas[owner]
	} else {
		s.next++
		id = s.next
	}
	var addr uint64
	if s.arenas != nil {
		addr = s.alloc.AllocCore(owner, int64(size))
	} else {
		addr = s.alloc.Alloc(int64(size))
	}
	s.cells[id] = &Cell{
		id:    id,
		owner: owner,
		home:  owner,
		size:  size,
		addr:  addr,
		data:  data,
	}
	s.mu.Unlock()
	return Link{id: id}
}

// Get resolves a link. It panics on the nil link or an unknown id, which
// indicates a program bug.
func (s *CellStore) Get(l Link) *Cell {
	s.mu.RLock()
	c, ok := s.cells[l.id]
	s.mu.RUnlock()
	if !ok {
		panic("mem: dereference of invalid link")
	}
	return c
}

// Len returns the number of cells.
func (s *CellStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cells)
}
