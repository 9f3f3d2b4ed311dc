package cache

// Directory is the line-granularity coherence directory used to time cache
// coherence effects. It follows an MSI-style discipline: a line is either
// shared by a set of readers or owned exclusively by one writer. The
// directory does not carry data — only the sharing state needed to charge
// invalidation and ownership-transfer delays.
//
// The cycle-level reference simulator consults it on every line; SiMany's
// validation mode ("enable the timings of cache coherence effects in
// SiMany", §V) consults it at block granularity, which is precisely the
// abstraction gap the paper measures.
type Directory struct {
	lineSize int
	lines    map[uint64]*dirLine
}

type dirLine struct {
	owner   int // exclusive writer, -1 if none
	sharers map[int]struct{}
}

// Outcome summarizes the coherence actions triggered by an access; the
// caller converts them into virtual-time delays.
type Outcome struct {
	// Invalidations is the number of remote copies that had to be
	// invalidated.
	Invalidations int
	// Transfers is the number of lines that had to be fetched from a
	// remote owner's cache (dirty transfer) rather than from memory.
	Transfers int
	// FromCore is the previous exclusive owner of the last transferred
	// line, or -1 without a transfer. It lets the caller charge
	// distance-dependent costs.
	FromCore int
}

// NewDirectory creates a coherence directory.
func NewDirectory(lineSize int) *Directory {
	if lineSize <= 0 {
		lineSize = DefaultLineSize
	}
	return &Directory{lineSize: lineSize, lines: make(map[uint64]*dirLine)}
}

func (d *Directory) line(l uint64) *dirLine {
	dl, ok := d.lines[l]
	if !ok {
		dl = &dirLine{owner: -1, sharers: make(map[int]struct{})}
		d.lines[l] = dl
	}
	return dl
}

// Read records a read of addr by core and returns the coherence outcome.
func (d *Directory) Read(core int, addr uint64) Outcome {
	return d.ReadLine(core, LineOf(addr, d.lineSize))
}

// ReadLine is Read on an explicit line address.
func (d *Directory) ReadLine(core int, line uint64) Outcome {
	dl := d.line(line)
	out := Outcome{FromCore: -1}
	if dl.owner >= 0 && dl.owner != core {
		// Dirty in a remote cache: owner must write back / forward.
		out.Transfers = 1
		out.FromCore = dl.owner
		dl.sharers[dl.owner] = struct{}{}
		dl.owner = -1
	} else if dl.owner == core {
		return out // already exclusive, silent hit
	}
	dl.sharers[core] = struct{}{}
	return out
}

// Write records a write of addr by core and returns the coherence outcome.
func (d *Directory) Write(core int, addr uint64) Outcome {
	return d.WriteLine(core, LineOf(addr, d.lineSize))
}

// WriteLine is Write on an explicit line address.
func (d *Directory) WriteLine(core int, line uint64) Outcome {
	dl := d.line(line)
	out := Outcome{FromCore: -1}
	if dl.owner == core {
		return out // already exclusive
	}
	if dl.owner >= 0 {
		out.Transfers = 1
		out.FromCore = dl.owner
		out.Invalidations = 1
	}
	for s := range dl.sharers {
		if s != core {
			out.Invalidations++
		}
	}
	clear(dl.sharers)
	dl.owner = core
	return out
}

// RangeWrite records a block write of n elements of elem bytes at base by
// core, visiting each covered line, and returns the aggregate outcome (the
// abstract per-block variant used by SiMany's validation mode should call
// this once per block; the cycle-level simulator calls WriteLine per line).
func (d *Directory) RangeWrite(core int, base uint64, n int64, elem int) Outcome {
	agg := Outcome{FromCore: -1}
	if n <= 0 {
		return agg
	}
	if elem <= 0 {
		elem = 1
	}
	first := LineOf(base, d.lineSize)
	last := LineOf(base+uint64(n)*uint64(elem)-1, d.lineSize)
	for line := first; line <= last; line++ {
		o := d.WriteLine(core, line)
		agg.Invalidations += o.Invalidations
		if o.Transfers > 0 {
			agg.Transfers++
			agg.FromCore = o.FromCore
		}
	}
	return agg
}

// RangeRead is the block-read counterpart of RangeWrite.
func (d *Directory) RangeRead(core int, base uint64, n int64, elem int) Outcome {
	agg := Outcome{FromCore: -1}
	if n <= 0 {
		return agg
	}
	if elem <= 0 {
		elem = 1
	}
	first := LineOf(base, d.lineSize)
	last := LineOf(base+uint64(n)*uint64(elem)-1, d.lineSize)
	for line := first; line <= last; line++ {
		o := d.ReadLine(core, line)
		agg.Invalidations += o.Invalidations
		if o.Transfers > 0 {
			agg.Transfers++
			agg.FromCore = o.FromCore
		}
	}
	return agg
}
