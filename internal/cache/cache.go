// Package cache implements the memory-side timing models of the simulator.
//
// SiMany deliberately keeps cache models simple: the private L1 model is
// pessimistic — "data do not stay in the cache across function boundaries"
// (§V) — while the cycle-level reference simulator uses real split I/D
// direct-mapped caches with line-granularity coherence. Both are provided
// here, along with the per-core L2 used by the distributed-memory run-time
// system and the coherence directory that times invalidations and
// ownership transfers.
package cache

// DefaultLineSize is the cache line size in bytes (PowerPC-405-class).
const DefaultLineSize = 32

// LineOf returns the line address containing byte address addr.
func LineOf(addr uint64, lineSize int) uint64 {
	return addr / uint64(lineSize)
}

// Scoped is SiMany's pessimistic private L1 model. A line accessed earlier
// within the current function scope hits; everything else misses, and all
// contents are discarded when a scope is left. This intentionally
// under-approximates locality, as in the paper.
type Scoped struct {
	lineSize int //simany:derived immutable line-size configuration from NewScoped
	present  *lineSet
	depth    int
}

// NewScoped creates a pessimistic scoped L1 with the given line size. The
// presence set is allocated lazily on first access so a 100k-core machine
// whose cores mostly never touch memory pays one nil pointer per core.
func NewScoped(lineSize int) *Scoped {
	if lineSize <= 0 {
		lineSize = DefaultLineSize
	}
	return &Scoped{lineSize: lineSize}
}

// Enter marks entry into a function scope.
func (s *Scoped) Enter() { s.depth++ }

// Leave marks exit from a function scope and discards the cache contents:
// data do not survive function boundaries in this model.
func (s *Scoped) Leave() {
	if s.depth > 0 {
		s.depth--
	}
	s.present.reset()
}

// Access records one access to addr and reports whether it hit.
func (s *Scoped) Access(addr uint64) bool {
	_, misses := s.Range(addr, 1, 1)
	return misses == 0
}

// Range records n accesses of elem bytes each starting at base and returns
// the hit and miss counts (hits+misses == n). Whole lines newly brought in
// miss once; the remaining accesses to them hit.
func (s *Scoped) Range(base uint64, n int64, elem int) (hits, misses int64) {
	if n <= 0 {
		return 0, 0
	}
	if elem <= 0 {
		elem = 1
	}
	first := LineOf(base, s.lineSize)
	last := LineOf(base+uint64(n)*uint64(elem)-1, s.lineSize)
	if s.present == nil {
		s.present = new(lineSet)
	}
	newLines := s.present.add(first, last)
	if newLines > n {
		newLines = n
	}
	return n - newLines, newLines
}

// DirectMapped is a real direct-mapped cache used by the cycle-level
// reference simulator's split I/D L1s.
type DirectMapped struct {
	lineSize int
	nLines   int
	tags     []uint64
	valid    []bool
}

// NewDirectMapped creates a direct-mapped cache of sizeBytes capacity.
func NewDirectMapped(sizeBytes, lineSize int) *DirectMapped {
	if lineSize <= 0 {
		lineSize = DefaultLineSize
	}
	n := sizeBytes / lineSize
	if n < 1 {
		n = 1
	}
	return &DirectMapped{
		lineSize: lineSize,
		nLines:   n,
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
	}
}

// Access records one access to addr and reports whether it hit. On a miss
// the line is installed, evicting the previous occupant of its set.
func (d *DirectMapped) Access(addr uint64) bool {
	line := LineOf(addr, d.lineSize)
	idx := int(line % uint64(d.nLines))
	if d.valid[idx] && d.tags[idx] == line {
		return true
	}
	d.valid[idx] = true
	d.tags[idx] = line
	return false
}

// Range records n accesses of elem bytes each starting at base, walking
// every line, and returns hit/miss counts (hits+misses == n). The first
// access to a line not currently resident misses; the remaining accesses
// covered by that line hit.
func (d *DirectMapped) Range(base uint64, n int64, elem int) (hits, misses int64) {
	if n <= 0 {
		return 0, 0
	}
	if elem <= 0 {
		elem = 1
	}
	perLine := int64(d.lineSize / elem)
	if perLine < 1 {
		perLine = 1
	}
	addr := base
	for i := int64(0); i < n; i += perLine {
		cnt := perLine
		if n-i < cnt {
			cnt = n - i
		}
		line := LineOf(addr, d.lineSize)
		idx := int(line % uint64(d.nLines))
		if d.valid[idx] && d.tags[idx] == line {
			hits += cnt
		} else {
			d.valid[idx] = true
			d.tags[idx] = line
			misses++
			hits += cnt - 1
		}
		addr += uint64(d.lineSize)
	}
	return hits, misses
}

// Flush invalidates the whole cache.
func (d *DirectMapped) Flush() {
	for i := range d.valid {
		d.valid[i] = false
	}
}

// InvalidateLine removes one line if present (coherence invalidation).
func (d *DirectMapped) InvalidateLine(line uint64) {
	idx := int(line % uint64(d.nLines))
	if d.valid[idx] && d.tags[idx] == line {
		d.valid[idx] = false
	}
}

// L2 is the simple per-core L2 used by the distributed-memory run-time
// system: remote data fetched by DATA_REQUEST are installed here and served
// with the usual 10-cycle latency (§V). The model is an unbounded
// presence set, matching the paper's abstract "stored in the initiating
// core's L2".
type L2 struct {
	lineSize int //simany:derived immutable line-size configuration from NewL2
	present  *lineSet
}

// NewL2 creates an L2 model. Like NewScoped, the presence set is allocated
// lazily on first use.
func NewL2(lineSize int) *L2 {
	if lineSize <= 0 {
		lineSize = DefaultLineSize
	}
	return &L2{lineSize: lineSize}
}

// Access records one access and reports hit.
func (l *L2) Access(addr uint64) bool {
	_, misses := l.AccessRange(addr, 1)
	return misses == 0
}

// AccessRange records one access to each of `lines` consecutive lines,
// the first being the line of base, and returns how many hit and how many
// missed (and are now installed).
//
// mem.Distributed charges a range's L1 misses through this method as the
// first `misses` lines from the range's base, not as the lines that
// actually missed L1: a range whose first half is L1-resident re-touches
// that half in the L2 and never reaches its second half. That is the
// model's behaviour since the seed and results depend on it (ROADMAP
// item 5 lists it as a model question).
func (l *L2) AccessRange(base uint64, lines int64) (hits, misses int64) {
	if lines <= 0 {
		return 0, 0
	}
	first := LineOf(base, l.lineSize)
	if l.present == nil {
		l.present = new(lineSet)
	}
	misses = l.present.add(first, first+uint64(lines)-1)
	return lines - misses, misses
}

// Install brings the lines covering [base, base+bytes) into the L2 without
// counting accesses (used when a DATA_RESPONSE arrives).
func (l *L2) Install(base uint64, bytes int64) {
	if bytes <= 0 {
		return
	}
	if l.present == nil {
		l.present = new(lineSet)
	}
	l.present.add(LineOf(base, l.lineSize), LineOf(base+uint64(bytes)-1, l.lineSize))
}

// Evict removes the lines covering [base, base+bytes) (exclusive transfer
// to another core).
func (l *L2) Evict(base uint64, bytes int64) {
	if bytes <= 0 {
		return
	}
	l.present.remove(LineOf(base, l.lineSize), LineOf(base+uint64(bytes)-1, l.lineSize))
}

// Contains reports whether the line of addr is present.
func (l *L2) Contains(addr uint64) bool {
	return l.present.has(LineOf(addr, l.lineSize))
}
