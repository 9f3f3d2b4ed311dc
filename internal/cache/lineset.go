package cache

import (
	"math"
	"slices"

	"simany/internal/snap"
)

// span is a closed range [lo, hi] of line addresses.
type span struct{ lo, hi uint64 }

// lineSet is a set of line addresses kept as sorted, disjoint, non-adjacent
// closed spans. The simulated programs touch memory in ranges (an array
// slice, a cell), so a set of thousands of lines is a handful of spans:
// a range operation costs O(log spans + spans merged) instead of one hash
// operation per line, and emptying the set is a slice truncation.
//
// Owners hold a *lineSet that is nil until the first add; has, remove,
// reset and snapshot accept the nil set as the empty set.
type lineSet struct {
	spans []span
}

// search returns the index of the first span whose hi is >= line, or
// len(spans) if there is none. Written out: slices.BinarySearchFunc's
// comparison callback made add and remove 40 % slower on a 66-span set.
func (s *lineSet) search(line uint64) int {
	lo, hi := 0, len(s.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.spans[m].hi < line {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// has reports whether line is in the set.
func (s *lineSet) has(line uint64) bool {
	if s == nil {
		return false
	}
	i := s.search(line)
	return i < len(s.spans) && s.spans[i].lo <= line
}

// add inserts the lines first..last (first <= last) and returns how many
// of them were not in the set before.
func (s *lineSet) add(first, last uint64) (newLines int64) {
	// Spans i..j-1 overlap [first, last] or touch it; they and the new
	// range collapse into one span.
	from := first
	if from > 0 {
		from-- // a span ending at first-1 is adjacent
	}
	i := s.search(from)
	newLines = int64(last - first + 1)
	merged := span{first, last}
	j := i
	for ; j < len(s.spans); j++ {
		sp := s.spans[j]
		if last != math.MaxUint64 && sp.lo > last+1 {
			break
		}
		if sp.lo <= last && sp.hi >= first { // overlapping, not just adjacent
			newLines -= int64(min(sp.hi, last) - max(sp.lo, first) + 1)
		}
		merged = span{min(merged.lo, sp.lo), max(merged.hi, sp.hi)}
	}
	s.spans = slices.Replace(s.spans, i, j, merged)
	return newLines
}

// remove deletes the lines first..last (first <= last) from the set.
func (s *lineSet) remove(first, last uint64) {
	if s == nil {
		return
	}
	// Spans i..j-1 overlap [first, last]; what the first keeps below
	// first and the last keeps above last stays.
	i := s.search(first)
	j := i
	for j < len(s.spans) && s.spans[j].lo <= last {
		j++
	}
	if i == j {
		return
	}
	var keep [2]span
	n := 0
	if sp := s.spans[i]; sp.lo < first {
		keep[n] = span{sp.lo, first - 1}
		n++
	}
	if sp := s.spans[j-1]; sp.hi > last {
		keep[n] = span{last + 1, sp.hi}
		n++
	}
	s.spans = slices.Replace(s.spans, i, j, keep[:n]...)
}

// reset empties the set and keeps its capacity.
func (s *lineSet) reset() {
	if s != nil {
		s.spans = s.spans[:0]
	}
}

// snapshot appends the span list, which is already canonical: count, then
// (lo, hi) per span in ascending order.
func (s *lineSet) snapshot(enc *snap.Encoder) {
	if s == nil {
		enc.Uvarint(0)
		return
	}
	enc.Uvarint(uint64(len(s.spans)))
	for _, sp := range s.spans {
		enc.Uvarint(sp.lo)
		enc.Uvarint(sp.hi)
	}
}
