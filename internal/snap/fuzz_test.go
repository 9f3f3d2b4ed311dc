package snap_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"simany/internal/core"
	"simany/internal/mem"
	"simany/internal/rt"
	"simany/internal/snap"
	"simany/internal/topology"
)

// realCheckpoint runs a small fork/join program on the task runtime to a
// pause and returns the file the kernel writes there: every section a
// simany checkpoint has, in the current format.
func realCheckpoint(tb testing.TB, shards int) []byte {
	tb.Helper()
	k := core.New(core.Config{
		Topo: topology.Mesh(4), Mem: mem.NewShared(), Seed: 7,
		Shards: shards, Workers: 1,
	})
	r := rt.New(k, nil, rt.DefaultOptions())
	k.PauseAfter(3)
	_, err := r.Run("root", func(e *core.Env) {
		g := r.NewGroup()
		for i := 0; i < 6; i++ {
			r.SpawnOrRun(e, g, "child", 16, func(ce *core.Env) { ce.ComputeCycles(400) })
		}
		r.Join(e, g)
	})
	if !errors.Is(err, core.ErrPaused) {
		tb.Fatalf("expected ErrPaused, got %v", err)
	}
	var buf bytes.Buffer
	if err := k.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadContainer: the container reader never panics, and whatever it
// accepts is the canonical encoding of what it returns — writing the
// container back gives the input bytes. Almost every mutation of a valid
// file dies at the CRC, so each input is also tried with a fresh CRC
// appended, which is what lets the fuzzer reach the parser beneath.
func FuzzReadContainer(f *testing.F) {
	for _, shards := range []int{1, 2} {
		data := realCheckpoint(f, shards)
		f.Add(data)
		f.Add(data[:len(data)-4]) // the body alone: sealed below
	}
	f.Add([]byte("SIMANYCK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data))
		for _, in := range [][]byte{data, sealed} {
			c, err := snap.ReadContainer(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if _, err := c.WriteTo(&out); err != nil {
				t.Fatalf("accepted container does not write back: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(in), out.Len())
			}
		}
	})
}
