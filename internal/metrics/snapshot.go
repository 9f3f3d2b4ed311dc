package metrics

import (
	"fmt"

	"simany/internal/snap"
)

// SnapshotState appends the striped accumulator's per-stripe values: the
// stripe breakdown, not just the sum, is what a replayed run must
// reproduce.
func (s *Striped) SnapshotState(enc *snap.Encoder) {
	enc.Uvarint(uint64(len(s.vals)))
	for i := range s.vals {
		enc.Varint(s.vals[i].v)
	}
}

// SnapshotState appends every instrument's full striped state in sorted
// name order (canonical bytes). Single-threaded context only, like
// Snapshot.
func (r *Registry) SnapshotState(enc *snap.Encoder) {
	names := sortedKeys(r.counters)
	enc.Uvarint(uint64(len(names)))
	for _, name := range names {
		c := r.counters[name]
		enc.String(name)
		enc.Uvarint(uint64(len(c.vals)))
		for i := range c.vals {
			enc.Varint(c.vals[i].v)
		}
	}
	names = sortedKeys(r.hists)
	enc.Uvarint(uint64(len(names)))
	for _, name := range names {
		h := r.hists[name]
		enc.String(name)
		enc.Uvarint(uint64(len(h.vals)))
		for i := range h.vals {
			st := &h.vals[i]
			enc.Varint(st.count)
			enc.Varint(st.sum)
			enc.Varint(st.min)
			enc.Varint(st.max)
			enc.Uvarint(uint64(len(st.counts)))
			for _, n := range st.counts {
				enc.Varint(n)
			}
		}
	}
}

// RestoreState implements the inverse of SnapshotState into an
// already-built registry: every checkpointed instrument must exist with
// matching stripe and bucket shape (instrument creation is configuration,
// not state).
func (r *Registry) RestoreState(dec *snap.Decoder) error {
	nc, err := dec.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nc; i++ {
		name, err := dec.String()
		if err != nil {
			return err
		}
		c, ok := r.counters[name]
		if !ok {
			return fmt.Errorf("metrics: checkpoint has unknown counter %q", name)
		}
		ns, err := dec.Uvarint()
		if err != nil {
			return err
		}
		if ns != uint64(len(c.vals)) {
			return fmt.Errorf("metrics: counter %q stripe count mismatch: checkpoint %d, live %d", name, ns, len(c.vals))
		}
		for j := range c.vals {
			if c.vals[j].v, err = dec.Varint(); err != nil {
				return err
			}
		}
	}
	nh, err := dec.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nh; i++ {
		name, err := dec.String()
		if err != nil {
			return err
		}
		h, ok := r.hists[name]
		if !ok {
			return fmt.Errorf("metrics: checkpoint has unknown histogram %q", name)
		}
		ns, err := dec.Uvarint()
		if err != nil {
			return err
		}
		if ns != uint64(len(h.vals)) {
			return fmt.Errorf("metrics: histogram %q stripe count mismatch: checkpoint %d, live %d", name, ns, len(h.vals))
		}
		for j := range h.vals {
			st := &h.vals[j]
			if st.count, err = dec.Varint(); err != nil {
				return err
			}
			if st.sum, err = dec.Varint(); err != nil {
				return err
			}
			if st.min, err = dec.Varint(); err != nil {
				return err
			}
			if st.max, err = dec.Varint(); err != nil {
				return err
			}
			nb, err := dec.Uvarint()
			if err != nil {
				return err
			}
			if nb != uint64(len(st.counts)) {
				return fmt.Errorf("metrics: histogram %q bucket count mismatch: checkpoint %d, live %d", name, nb, len(st.counts))
			}
			for b := range st.counts {
				if st.counts[b], err = dec.Varint(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
