package cache

import "simany/internal/snap"

// Snapshot appends the scoped L1's state in canonical form: the present
// lines as their sorted span list, so identical cache state always
// produces identical bytes (required by the kernel's replay-verified
// restore).
func (s *Scoped) Snapshot(enc *snap.Encoder) {
	enc.Varint(int64(s.depth))
	s.present.snapshot(enc)
}

// Snapshot appends the L2's state in canonical (sorted span) form.
func (l *L2) Snapshot(enc *snap.Encoder) {
	l.present.snapshot(enc)
}
