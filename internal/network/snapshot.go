package network

import "simany/internal/snap"

// Snapshot appends the model's mutable state: per-source emission
// counters, per-link contention next-free times, the lazily-paged FIFO
// clamp arrays (a nil flag per source table and per destination page, so
// the lazy allocation pattern — not just its contents — is compared), and
// the striped statistics totals. Routing tables and link parameters are
// configuration, rebuilt by New.
func (m *Model) Snapshot(enc *snap.Encoder) {
	enc.Uvarint(uint64(len(m.srcSeq)))
	for _, s := range m.srcSeq {
		enc.Uvarint(s)
	}
	for _, free := range m.nbFree {
		enc.Uvarint(uint64(len(free)))
		for _, t := range free {
			enc.Time(t)
		}
	}
	for _, tab := range m.lastArrival {
		enc.Bool(tab != nil)
		if tab == nil {
			continue
		}
		for _, page := range tab {
			enc.Bool(page != nil)
			if page != nil {
				for _, t := range page {
					enc.Time(t)
				}
			}
		}
	}
	m.messages.SnapshotState(enc)
	m.totalHops.SnapshotState(enc)
	m.bytes.SnapshotState(enc)
}
