// Package snap implements the checkpoint wire format shared by every
// snapshottable simulator component (docs/checkpoint.md).
//
// The format has two layers. The inner layer is a deterministic primitive
// encoding: unsigned varints, zig-zag signed varints, length-prefixed byte
// strings. Writers are required to emit collections in a canonical order
// (sorted keys), so that two equal states always produce equal bytes — the
// replay-verified restore path depends on byte equality, not just semantic
// equality. The outer layer is a self-describing container: a magic
// header, a format version, a config fingerprint, the engine position the
// checkpoint was taken at, a directory of named sections, and a trailing
// CRC-32 over everything before it. Unknown sections are skipped on read,
// so later format revisions can add sections without breaking old readers.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"simany/internal/vtime"
)

// Snapshottable is implemented by every simulator component whose mutable
// state participates in a checkpoint. Snapshot must write the component's
// state in canonical order: restore re-executes the run to the
// checkpoint's position and compares the bytes Snapshot writes then with
// the bytes it wrote into the file.
type Snapshottable interface {
	Snapshot(enc *Encoder)
}

// Corruption and truncation sentinels. Decoder errors wrap one of these so
// callers can distinguish a damaged file from an I/O failure.
var (
	// ErrBadMagic means the input does not start with the checkpoint magic.
	ErrBadMagic = errors.New("snap: not a checkpoint file")
	// ErrVersion means the file's format version is unsupported.
	ErrVersion = errors.New("snap: unsupported checkpoint version")
	// ErrTruncated means the input ended before the encoded structure did.
	ErrTruncated = errors.New("snap: truncated checkpoint")
	// ErrChecksum means the trailing CRC does not match the file contents.
	ErrChecksum = errors.New("snap: checksum mismatch")
	// ErrCorrupt means an encoded value is structurally invalid.
	ErrCorrupt = errors.New("snap: corrupt checkpoint")
)

// Encoder accumulates the canonical primitive encoding in memory.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes64 appends a length-prefixed byte string.
func (e *Encoder) Bytes64(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Time appends a virtual-time value as a signed varint. The matching
// Decoder.Time returns it typed, so the millicycle unit is preserved
// end-to-end across the serialization boundary.
func (e *Encoder) Time(t vtime.Time) {
	//lint:allow rawvtime serialization boundary: Decoder.Time restores the millicycle unit typed
	e.Varint(int64(t))
}

// Decoder consumes the primitive encoding from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps a payload produced by an Encoder.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining reports how many bytes are left to consume.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads an unsigned varint. Only the shortest encoding of a value
// is accepted — the one Encoder writes — so every byte string the decoder
// accepts is the canonical encoding of what it decodes to.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: varint overflow at offset %d", ErrCorrupt, d.off)
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		return 0, fmt.Errorf("%w: padded varint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() (int64, error) {
	u, err := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, err
}

// Bool reads a boolean byte.
func (d *Decoder) Bool() (bool, error) {
	if d.off >= len(d.buf) {
		return false, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		return false, fmt.Errorf("%w: bad bool byte %#x at offset %d", ErrCorrupt, b, d.off-1)
	}
	return b == 1, nil
}

// Bytes64 reads a length-prefixed byte string. The returned slice aliases
// the decoder's buffer.
func (d *Decoder) Bytes64() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.off) {
		return nil, ErrTruncated
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes64()
	return string(b), err
}

// Time reads a virtual-time value written by Encoder.Time.
func (d *Decoder) Time() (vtime.Time, error) {
	v, err := d.Varint()
	return vtime.Time(v), err
}

// Container format constants.
const (
	magic = "SIMANYCK"
	// Version is the current checkpoint format version. Version 2 paged
	// the network FIFO-clamp encoding by destination block (the flat
	// per-source arrays of version 1 do not scale to 100k-core machines).
	// Version 3 dropped the header's restore-mode byte and the runtime's
	// step-group registry: every file is restored by verified replay.
	// Version 4 writes the L1/L2 cache-model contents as (lo, hi) line
	// spans instead of one varint per line. Version 5 dropped the
	// header's engine byte (the fingerprint decides the engine) and counts
	// the position in scheduling steps on both engines. Version 6 dropped
	// a per-core stall-wait counter nothing wrote, and its fingerprint no
	// longer mixes the task-start and context-switch costs (constants of
	// §V).
	Version = 6
)

// Container is a parsed checkpoint file: the header fields plus the named
// section payloads, in file order.
type Container struct {
	// Fingerprint is a hash of the configuration fields that define the
	// simulation (cores, shards, seed, topology, policy, costs); resume
	// refuses a checkpoint whose fingerprint differs from the target
	// kernel's.
	Fingerprint uint64
	// Pos is the engine position at checkpoint: completed scheduling
	// steps.
	Pos int64
	// Sections maps section name to payload. SectionOrder preserves the
	// canonical file order for writing and byte comparison.
	Sections     map[string][]byte
	SectionOrder []string
}

// Section returns a named section payload, or an error naming the section
// if it is absent.
func (c *Container) Section(name string) ([]byte, error) {
	b, ok := c.Sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return b, nil
}

// Add appends a section. Adding the same name twice is a programming
// error.
func (c *Container) Add(name string, payload []byte) {
	if c.Sections == nil {
		c.Sections = make(map[string][]byte)
	}
	if _, dup := c.Sections[name]; dup {
		panic("snap: duplicate section " + name)
	}
	c.Sections[name] = payload
	c.SectionOrder = append(c.SectionOrder, name)
}

// WriteTo serializes the container: magic, version, header fields, section
// directory, then a CRC-32 (IEEE) of everything preceding it.
func (c *Container) WriteTo(w io.Writer) (int64, error) {
	e := NewEncoder()
	e.buf = append(e.buf, magic...)
	e.Uvarint(Version)
	e.Uvarint(c.Fingerprint)
	e.Varint(c.Pos)
	e.Uvarint(uint64(len(c.SectionOrder)))
	for _, name := range c.SectionOrder {
		e.String(name)
		e.Bytes64(c.Sections[name])
	}
	sum := crc32.ChecksumIEEE(e.buf)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, sum)
	n, err := w.Write(e.buf)
	return int64(n), err
}

// ReadContainer parses a checkpoint file, validating magic, version and
// checksum. It reads the whole input: checkpoints are small relative to
// the simulations they capture.
func ReadContainer(r io.Reader) (*Container, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snap: reading checkpoint: %w", err)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if len(data) < len(magic)+4 {
		return nil, ErrTruncated
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, ErrChecksum
	}
	d := NewDecoder(body[len(magic):])
	ver, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, ver, Version)
	}
	c := &Container{Sections: make(map[string][]byte)}
	if c.Fingerprint, err = d.Uvarint(); err != nil {
		return nil, err
	}
	if c.Pos, err = d.Varint(); err != nil {
		return nil, err
	}
	nsec, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nsec; i++ {
		name, err := d.String()
		if err != nil {
			return nil, err
		}
		payload, err := d.Bytes64()
		if err != nil {
			return nil, err
		}
		if _, dup := c.Sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		// Copy out of the read buffer so sections stay independent.
		c.Sections[name] = append([]byte(nil), payload...)
		c.SectionOrder = append(c.SectionOrder, name)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after section directory", ErrCorrupt, d.Remaining())
	}
	return c, nil
}
