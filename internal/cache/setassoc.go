package cache

// SetAssoc is an n-way set-associative cache with LRU replacement — a
// higher-fidelity alternative to DirectMapped (§V's UNISIM configuration
// is associative). No memory system uses it: the cycle-level reference's
// L1s are direct-mapped.
type SetAssoc struct {
	lineSize int
	ways     int
	sets     int
	// tags[set*ways+way], ordered most-recently-used first within a set.
	tags  []uint64
	valid []bool

	hits, misses int64
}

// NewSetAssoc creates a sizeBytes-capacity cache with the given
// associativity.
func NewSetAssoc(sizeBytes, lineSize, ways int) *SetAssoc {
	if lineSize <= 0 {
		lineSize = DefaultLineSize
	}
	if ways <= 0 {
		ways = 1
	}
	lines := sizeBytes / lineSize
	if lines < ways {
		lines = ways
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	return &SetAssoc{
		lineSize: lineSize,
		ways:     ways,
		sets:     sets,
		tags:     make([]uint64, sets*ways),
		valid:    make([]bool, sets*ways),
	}
}

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Access records one access to addr and reports whether it hit; the line
// becomes most-recently-used, evicting the LRU way on a miss.
func (c *SetAssoc) Access(addr uint64) bool {
	line := LineOf(addr, c.lineSize)
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			// Move to MRU position.
			copy(c.tags[base+1:base+w+1], c.tags[base:base+w])
			copy(c.valid[base+1:base+w+1], c.valid[base:base+w])
			c.tags[base] = line
			c.valid[base] = true
			c.hits++
			return true
		}
	}
	// Miss: shift everything down one way, install at MRU.
	copy(c.tags[base+1:base+c.ways], c.tags[base:base+c.ways-1])
	copy(c.valid[base+1:base+c.ways], c.valid[base:base+c.ways-1])
	c.tags[base] = line
	c.valid[base] = true
	c.misses++
	return false
}

// InvalidateLine removes one line if present (coherence invalidation).
func (c *SetAssoc) InvalidateLine(line uint64) {
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.valid[base+w] = false
			return
		}
	}
}

// Flush invalidates the whole cache.
func (c *SetAssoc) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

// Stats returns cumulative hit and miss counts.
func (c *SetAssoc) Stats() (hits, misses int64) { return c.hits, c.misses }
