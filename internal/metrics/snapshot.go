package metrics

import "simany/internal/snap"

// SnapshotState appends the striped accumulator's per-stripe values: the
// stripe breakdown, not just the sum, is what a replayed run must
// reproduce.
func (s *Striped) SnapshotState(enc *snap.Encoder) {
	enc.Uvarint(uint64(len(s.vals)))
	for i := range s.vals {
		enc.Varint(s.vals[i].v)
	}
}
