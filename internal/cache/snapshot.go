package cache

import (
	"sort"

	"simany/internal/snap"
)

// Snapshot appends the scoped L1's state in canonical form: present lines
// sorted ascending, so identical cache state always produces identical
// bytes (required by the kernel's replay-verified restore).
func (s *Scoped) Snapshot(enc *snap.Encoder) {
	enc.Varint(int64(s.depth))
	enc.Varint(s.hits)
	enc.Varint(s.misses)
	lines := make([]uint64, 0, len(s.present))
	for l := range s.present {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	enc.Uvarint(uint64(len(lines)))
	for _, l := range lines {
		enc.Uvarint(l)
	}
}

// Snapshot appends the L2's state in canonical (sorted) form.
func (l *L2) Snapshot(enc *snap.Encoder) {
	enc.Varint(l.hits)
	enc.Varint(l.misses)
	lines := make([]uint64, 0, len(l.present))
	for ln := range l.present {
		lines = append(lines, ln)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	enc.Uvarint(uint64(len(lines)))
	for _, ln := range lines {
		enc.Uvarint(ln)
	}
}
