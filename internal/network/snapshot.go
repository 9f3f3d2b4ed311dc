package network

import "simany/internal/snap"

// Snapshot appends the model's mutable state: the per-link contention
// next-free times. The per-source emission counts and the other counters
// are in the registry's section; routing tables and link parameters are
// configuration, rebuilt by New.
func (m *Model) Snapshot(enc *snap.Encoder) {
	for node := 0; node < m.topo.N(); node++ {
		first, deg := m.topo.FirstLink(node), m.topo.Degree(node)
		enc.Uvarint(uint64(deg))
		for _, t := range m.free[first : first+deg] {
			enc.Time(t)
		}
	}
}
