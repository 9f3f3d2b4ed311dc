package metrics

import (
	"slices"

	"simany/internal/snap"
)

// EncodeState appends the registry's counters and vectors in name order:
// every stripe and every core entry, not just the totals, since that
// breakdown is what a replayed run must reproduce. Histograms are
// observations, not state, and are not written; neither are the counters
// in omit, which only a caller-supplied registry records.
func (r *Registry) EncodeState(enc *snap.Encoder, omit ...*Counter) {
	for _, name := range sortedKeys(r.counters) {
		c := r.counters[name]
		if slices.Contains(omit, c) {
			continue
		}
		enc.String(c.name)
		for i := range c.vals {
			enc.Varint(c.vals[i].v)
		}
	}
	for _, name := range sortedKeys(r.vectors) {
		v := r.vectors[name]
		enc.String(v.name)
		enc.Uvarint(uint64(len(v.vals)))
		for _, x := range v.vals {
			enc.Varint(x)
		}
	}
}
