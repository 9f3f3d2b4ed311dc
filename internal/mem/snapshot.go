package mem

import (
	"sort"

	"simany/internal/snap"
)

// Checkpoint support for the address allocator and the cell store. Cells
// are only structurally serialized (placement, lock state, waiter counts):
// their payloads are live Go values with no codec. Restore is verified
// replay, where these bytes are comparison material, not input.

// Snapshot appends the allocator's cursors: the global bump pointer and
// the per-core arena pointers in core order.
func (a *Allocator) Snapshot(enc *snap.Encoder) {
	a.mu.Lock()
	defer a.mu.Unlock()
	enc.Uvarint(a.next)
	cores := make([]int, 0, len(a.arenas))
	for c := range a.arenas {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	enc.Uvarint(uint64(len(cores)))
	for _, c := range cores {
		enc.Varint(int64(c))
		enc.Uvarint(*a.arenas[c])
	}
}

// Snapshot appends the store's id cursors and the structural state of
// every cell (sorted by id): placement, size, address, lock state and
// pending-waiter count. Payloads are not serialized.
func (s *CellStore) Snapshot(enc *snap.Encoder) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	enc.Uvarint(s.next)
	enc.Bool(s.arenas != nil)
	if s.arenas != nil {
		cores := make([]int, 0, len(s.arenas))
		for c := range s.arenas {
			cores = append(cores, c)
		}
		sort.Ints(cores)
		enc.Uvarint(uint64(len(cores)))
		for _, c := range cores {
			enc.Varint(int64(c))
			enc.Uvarint(s.arenas[c])
		}
	}
	ids := make([]uint64, 0, len(s.cells))
	for id := range s.cells {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		c := s.cells[id]
		enc.Uvarint(c.id)
		enc.Varint(int64(c.owner))
		enc.Varint(int64(c.home))
		enc.Varint(int64(c.size))
		enc.Uvarint(c.addr)
		enc.Bool(c.locked)
		enc.Uvarint(c.lockHolder)
		enc.Uvarint(uint64(len(c.waiters)))
	}
}
