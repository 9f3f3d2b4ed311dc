package network

import "simany/internal/snap"

// Snapshot appends the model's mutable state: the per-link contention
// next-free times. The per-source emission counts and the other counters
// are in the registry's section; routing tables and link parameters are
// configuration, rebuilt by New.
func (m *Model) Snapshot(enc *snap.Encoder) {
	for _, free := range m.nbFree {
		enc.Uvarint(uint64(len(free)))
		for _, t := range free {
			enc.Time(t)
		}
	}
}
