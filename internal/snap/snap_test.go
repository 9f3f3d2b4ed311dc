package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uvarint(0)
	e.Uvarint(math.MaxUint64)
	e.Varint(-1)
	e.Varint(math.MinInt64)
	e.Varint(math.MaxInt64)
	e.Bytes64([]byte{0xde, 0xad})
	e.Bytes64(nil)
	e.String("hello")

	d := NewDecoder(e.Bytes())
	check := func(what string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %v, want %v", what, got, want)
		}
	}
	u, _ := d.Uvarint()
	check("uvarint 0", u, uint64(0))
	u, _ = d.Uvarint()
	check("uvarint max", u, uint64(math.MaxUint64))
	v, _ := d.Varint()
	check("varint -1", v, int64(-1))
	v, _ = d.Varint()
	check("varint min", v, int64(math.MinInt64))
	v, _ = d.Varint()
	check("varint max", v, int64(math.MaxInt64))
	bs, _ := d.Bytes64()
	if !bytes.Equal(bs, []byte{0xde, 0xad}) {
		t.Errorf("bytes64: got %x", bs)
	}
	bs, _ = d.Bytes64()
	if len(bs) != 0 {
		t.Errorf("empty bytes64: got %x", bs)
	}
	s, _ := d.String()
	check("string", s, "hello")
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
}

func TestDecoderErrorPaths(t *testing.T) {
	// Truncation: every primitive read from an empty decoder.
	d := NewDecoder(nil)
	if _, err := d.Uvarint(); !errors.Is(err, ErrTruncated) {
		t.Errorf("uvarint on empty: %v", err)
	}
	if _, err := d.Varint(); !errors.Is(err, ErrTruncated) {
		t.Errorf("varint on empty: %v", err)
	}
	if _, err := d.Bytes64(); !errors.Is(err, ErrTruncated) {
		t.Errorf("bytes64 on empty: %v", err)
	}

	// Only the shortest encoding of a varint is valid: a padded zero would
	// let two different files decode to the same container.
	if _, err := NewDecoder([]byte{0x80, 0x00}).Uvarint(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("padded uvarint: %v", err)
	}
	if _, err := NewDecoder([]byte{0x81, 0x00}).Varint(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("padded varint: %v", err)
	}

	// Varint overflow: more than 10 continuation bytes.
	over := bytes.Repeat([]byte{0x80}, 11)
	if _, err := NewDecoder(over).Uvarint(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("uvarint overflow: %v", err)
	}

	// Bytes64 whose declared length exceeds the remaining input.
	e := NewEncoder()
	e.Uvarint(100)
	if _, err := NewDecoder(e.Bytes()).Bytes64(); !errors.Is(err, ErrTruncated) {
		t.Errorf("oversized bytes64: %v", err)
	}
}

// writeContainer serializes c and returns the raw file bytes.
func writeContainer(t *testing.T, c *Container) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the trailing CRC after a deliberate body mutation, so
// the test reaches the validation layer beneath the checksum.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func sampleContainer() *Container {
	c := &Container{Fingerprint: 0xfeed, Pos: 42}
	c.Add("kernel", []byte{1, 2, 3})
	c.Add("shard.0", []byte{4, 5})
	c.Add("network", nil)
	return c
}

func TestContainerRoundTrip(t *testing.T) {
	data := writeContainer(t, sampleContainer())
	c, err := ReadContainer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint != 0xfeed || c.Pos != 42 {
		t.Errorf("header fields: %+v", c)
	}
	if len(c.SectionOrder) != 3 || c.SectionOrder[0] != "kernel" || c.SectionOrder[2] != "network" {
		t.Errorf("section order: %v", c.SectionOrder)
	}
	if b := c.Sections["shard.0"]; !bytes.Equal(b, []byte{4, 5}) {
		t.Errorf("shard.0 payload: %x", b)
	}
}

func TestContainerBadMagic(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("SIM"), []byte("NOTACKPT file body")} {
		if _, err := ReadContainer(bytes.NewReader(in)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("input %q: %v", in, err)
		}
	}
	// Magic alone, shorter than magic+CRC.
	if _, err := ReadContainer(bytes.NewReader([]byte(magic))); !errors.Is(err, ErrTruncated) {
		t.Errorf("bare magic: %v", err)
	}
}

func TestContainerChecksum(t *testing.T) {
	data := writeContainer(t, sampleContainer())
	for off := len(magic); off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x01
		if _, err := ReadContainer(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: got %v, want ErrChecksum", off, err)
		}
	}
}

func TestContainerVersionMismatch(t *testing.T) {
	data := writeContainer(t, sampleContainer())
	// The version varint is the byte right after the magic (Version < 128).
	mut := append([]byte(nil), data...)
	mut[len(magic)] = Version + 1
	if _, err := ReadContainer(bytes.NewReader(reseal(mut))); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: %v", err)
	}

	// A version-2 file — the layout before the restore-mode byte was
	// dropped, here a decode-mode one — is refused by its version, never
	// parsed with the mode byte read as the section count.
	e := NewEncoder()
	e.buf = append(e.buf, magic...)
	e.Uvarint(2)
	e.Uvarint(0xfeed)
	e.buf = append(e.buf, 1) // engine: sharded
	e.Varint(42)
	e.buf = append(e.buf, 1) // restore mode: decode
	e.Uvarint(1)
	e.String("kernel")
	e.Bytes64([]byte{1, 2, 3})
	old := binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	if _, err := ReadContainer(bytes.NewReader(old)); !errors.Is(err, ErrVersion) {
		t.Errorf("version-2 file: got %v, want ErrVersion", err)
	}

	// Version-3 and version-4 files carry an engine byte after the
	// fingerprint and count sharded positions in barriers; whatever
	// follows, they are refused by their version, never parsed with the
	// engine byte read as the position.
	for _, ver := range []uint64{3, 4} {
		e := NewEncoder()
		e.buf = append(e.buf, magic...)
		e.Uvarint(ver)
		e.Uvarint(0xfeed)
		e.buf = append(e.buf, 1) // engine: sharded
		e.Varint(42)
		e.Uvarint(1)
		e.String("kernel")
		e.Bytes64([]byte{1, 2, 3})
		old := binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
		if _, err := ReadContainer(bytes.NewReader(old)); !errors.Is(err, ErrVersion) {
			t.Errorf("version-%d file: got %v, want ErrVersion", ver, err)
		}
	}

	// A version-5 file has today's header layout, but its core records
	// carry one more counter (a stall-wait time) and its fingerprint mixed
	// the task-start and context-switch costs: it is refused by its
	// version, never decoded or verified against this kernel.
	v5 := writeContainer(t, sampleContainer())
	v5[len(magic)] = 5
	if _, err := ReadContainer(bytes.NewReader(reseal(v5))); !errors.Is(err, ErrVersion) {
		t.Errorf("version-5 file: got %v, want ErrVersion", err)
	}

	// A version-6 file carries obs.trace and obs.metrics sections that no
	// replay writes: it is refused by its version, not by a section error.
	v6 := &Container{Fingerprint: 0xfeed, Pos: 42}
	v6.Add("kernel", []byte{1, 2, 3})
	v6.Add("obs.trace", []byte{0})
	old6 := writeContainer(t, v6)
	old6[len(magic)] = 6
	if _, err := ReadContainer(bytes.NewReader(reseal(old6))); !errors.Is(err, ErrVersion) {
		t.Errorf("version-6 file: got %v, want ErrVersion", err)
	}

	// A version-7 file keeps its counters inside the core, shard, rt,
	// network and cache records and has no metrics section: it is refused
	// by its version, not by a section error.
	v7 := writeContainer(t, sampleContainer())
	v7[len(magic)] = 7
	if _, err := ReadContainer(bytes.NewReader(reseal(v7))); !errors.Is(err, ErrVersion) {
		t.Errorf("version-7 file: got %v, want ErrVersion", err)
	}

	// A version-8 file's network record carries the arrival-clamp pages
	// after the link next-free times: it is refused by its version, never
	// decoded with the pages read as trailing bytes.
	v8 := writeContainer(t, sampleContainer())
	v8[len(magic)] = 8
	if _, err := ReadContainer(bytes.NewReader(reseal(v8))); !errors.Is(err, ErrVersion) {
		t.Errorf("version-8 file: got %v, want ErrVersion", err)
	}
}

func TestContainerStructuralCorruption(t *testing.T) {
	// Duplicate section names must be rejected.
	dup := &Container{}
	dup.Sections = map[string][]byte{"kernel": {1}}
	dup.SectionOrder = []string{"kernel", "kernel"}
	if _, err := ReadContainer(bytes.NewReader(writeContainer(t, dup))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate section: %v", err)
	}

	// Trailing garbage after the section directory.
	data := writeContainer(t, sampleContainer())
	body := append([]byte(nil), data[:len(data)-4]...)
	body = append(body, 0xff)
	garbled := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := ReadContainer(bytes.NewReader(garbled)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
}

func TestContainerDuplicateAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with a duplicate name did not panic")
		}
	}()
	c := &Container{}
	c.Add("x", nil)
	c.Add("x", nil)
}
