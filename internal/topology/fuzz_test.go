package topology

import (
	"strconv"
	"strings"
	"testing"

	"simany/internal/vtime"
)

// maxFuzzCores bounds the machines the parser fuzzers build: size is not
// what they fuzz. A complete graph inserts n² links one at a time, so
// full:N gets a smaller bound.
const maxFuzzCores, maxFuzzFullCores = 4096, 64

// checkTopology fails t unless every link of top joins two distinct cores
// in range, in ascending neighbour order, with a finite non-negative
// latency, a positive bandwidth and a reverse link of the same parameters.
func checkTopology(t *testing.T, top *Topology) {
	t.Helper()
	for c := 0; c < top.N(); c++ {
		nb, lat, bw := top.Neighbors(c), top.NeighborLatencies(c), top.NeighborBandwidths(c)
		for i, d := range nb {
			back, ok := top.LinkBetween(d, c)
			if d == c || (i > 0 && nb[i-1] >= d) || lat[i] < 0 || lat[i] == vtime.Inf || bw[i] <= 0 ||
				!ok || back.Latency != lat[i] || back.Bandwidth != bw[i] {
				t.Fatalf("core %d: bad link %d of %v (latency %v, bandwidth %d)", c, i, nb, lat[i], bw[i])
			}
		}
	}
}

// FuzzParseSpec: a topology spec either fails to parse or builds a valid,
// connected network of the size SpecCores reports — never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"mesh:16", "mesh:8x2", "torus:4x4", "ring:10", "star:5", "full:6", "clustered:4:64", "64",
		"chiplet:2x2,2x2", "chiplet:2x2@0.5/64+2,2x2", "mesh:0", "mesh:-5", "torus:4294967296x4294967296",
		"chiplet:4294967296x4294967296,2x2", "chiplet:2x2@nan", "chiplet:2x2@1+inf", "chiplet:2x2@1e300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		n, err := SpecCores(spec)
		if err != nil || n > maxFuzzCores || (strings.HasPrefix(spec, "full:") && n > maxFuzzFullCores) {
			return
		}
		top, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("SpecCores(%q) = %d, but ParseSpec fails: %v", spec, n, err)
		}
		if top.N() != n {
			t.Fatalf("ParseSpec(%q) built %d cores, SpecCores says %d", spec, top.N(), n)
		}
		checkTopology(t, top)
		if !top.Connected() {
			t.Fatalf("ParseSpec(%q) is not connected", spec)
		}
	})
}

// FuzzParseAdjacency: an adjacency file either fails to parse or yields a
// valid network — never a panic.
func FuzzParseAdjacency(f *testing.F) {
	for _, s := range []string{
		"cores 4\nlink 0 1\nlink 1 2 2.5\nlink 2 3 1 64\n", "# ring\ncores 3\nmatrix\n0 1 1\n1 0 1\n1 1 0\n",
		"cores 2\nlink 0 1 nan", "cores 2\nlink 0 1 inf", "cores 2\nlink 0 1 1e300", "cores 2\nlink 0 1 0.0001",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, line := range strings.Split(src, "\n") {
			if fs := strings.Fields(line); len(fs) == 2 && fs[0] == "cores" {
				if n, err := strconv.Atoi(fs[1]); err == nil && n > maxFuzzCores {
					return
				}
			}
		}
		top, err := ParseAdjacency(strings.NewReader(src))
		if err == nil {
			checkTopology(t, top)
		}
	})
}
