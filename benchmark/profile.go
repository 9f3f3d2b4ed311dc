package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A stdlib-only reader of the pprof CPU profile (gzipped profile.proto),
// just deep enough to attribute samples to functions: no new dependency and
// no `go tool pprof` subprocess.

// cpuBuckets are the names host.cpu_share.* is reported under: the repo's
// packages, the two parts of the Go runtime the kernel leans on, and the
// rest.
var cpuBuckets = []string{
	"core", "network", "rt", "mem", "bench", "timing", "cache", "topology", "metrics", "trace",
	"runtime_sched", "runtime_gc", "other",
}

// schedFuncs and gcFuncs are matched as prefixes of runtime function names.
// They name the entry points only: samples deeper in the runtime (a futex
// wake, a span allocation) reach one of them on the walk towards the root.
// runtime_sched is the cost of a task handoff as the Go runtime pays it on
// the kernel's behalf: channel operations, parking and the scheduler loop.
var schedFuncs = []string{
	"runtime.chan", "runtime.gopark", "runtime.goready", "runtime.park_m", "runtime.schedule",
	"runtime.findRunnable", "runtime.mcall", "runtime.futex", "runtime.goexit", "runtime.newproc",
	"runtime.selectgo", "runtime.gosched", "runtime.mstart", "runtime.morestack", "sync.",
}

var gcFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMark",
	"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.GC", "runtime.ReadMemStats",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf classifies one frame, or returns "" when the frame alone does
// not decide (a library function: the caller decides).
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "simany/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "main."):
		// The workload bodies the benchmark itself supplies stand where
		// internal/bench's task bodies stand in the dwarfs.
		return "bench"
	case hasAnyPrefix(fn, gcFuncs):
		return "runtime_gc"
	case hasAnyPrefix(fn, schedFuncs):
		return "runtime_sched"
	}
	return ""
}

// cpuShares decodes a CPU profile and returns each bucket's share of the
// samples. A sample goes to the first frame, walking from the leaf towards
// the root, that decides a bucket: memmove under a quicksort partition is
// bench's time, a futex wake under a channel send is runtime_sched's.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		bucket := "other"
	frames:
		for _, loc := range s.locs {
			for _, fnID := range p.locFuncs[loc] {
				if b := bucketOf(p.strings[p.funcName[fnID]]); b != "" {
					bucket = b
					break frames
				}
			}
		}
		counts[bucket] += float64(s.count)
		total += float64(s.count)
	}
	// A run too short to be sampled has no counts and so no shares.
	for b := range counts {
		counts[b] /= total
	}
	return counts, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errTruncated = errors.New("truncated profile")

// protoReader walks the fields of one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func (r *protoReader) next() (field int, v uint64, data []byte, err error) {
	for len(r.b) > 0 {
		key, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			v, err = r.varint()
			return field, v, nil, err
		case 2:
			n, err := r.varint()
			if err != nil {
				return 0, 0, nil, err
			}
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, nil
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if n > len(r.b) {
				return 0, 0, nil, errTruncated
			}
			r.b = r.b[n:]
		default:
			return 0, 0, nil, errors.New("unsupported protobuf wire type")
		}
	}
	return 0, 0, nil, io.EOF
}

// repeated appends a repeated integer field that may arrive packed (data)
// or as a single value (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// fields calls f for every field of the message in data.
func fields(data []byte, f func(field int, v uint64, data []byte) error) error {
	r := protoReader{data}
	for {
		field, v, d, err := r.next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = f(field, v, d)
		}
		if err != nil {
			return err
		}
	}
}

// parseProfile reads the parts of profile.proto that sample attribution
// needs: Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(raw, func(field int, _ uint64, msg []byte) error {
		switch field {
		case 2: // Sample: location_id (1), value (2)
			var s profSample
			var values []uint64
			err := fields(msg, func(f int, v uint64, d []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					values, err = repeated(values, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // sample_type 0 is samples/count
			}
			p.samples = append(p.samples, s)
		case 4: // Location: id (1), line (4) -> Line: function_id (1)
			var id uint64
			var funcs []uint64
			err := fields(msg, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // Function: id (1), name (2)
			var id uint64
			var name int64
			err := fields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errors.New("profile has no string table")
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}
