package config

import (
	"io"
	"strings"
	"testing"

	"simany/internal/topology"
)

// FuzzParseMachine: a machine file either fails to parse or describes a
// machine with cores, a positive T and a topology spec that SpecCores
// accepts — never a panic. ParseMachine builds no network itself, and
// topology references resolve to one small adjacency file, so no input is
// too large to try.
func FuzzParseMachine(f *testing.F) {
	for _, s := range []string{
		"cores 256\nstyle clustered4\nmem distributed\npolicy spatial\nT 100\nseed 7\nspeedaware on\n",
		"topo chiplet:2x2@0.5,2x2\nT 50\n", "topology m.topo\n", "cores 4\npolicy quantum:50\n",
		"cores 4\nT 0.0001\n", "cores 4\nT nan\n", "topo mesh:0\n", "topo mesh:-5\n",
		"topo chiplet:4294967296x4294967296,2x2\n", "topo chiplet:2x2@nan\n", "topo chiplet:2x2@1+inf\n",
	} {
		f.Add(s)
	}
	resolve := func(string) (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader("cores 3\nlink 0 1 0.5\nlink 1 2\n")), nil
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseMachine(strings.NewReader(src), resolve)
		if err != nil {
			return
		}
		if (m.Cores <= 0 && m.Topo == nil) || m.T <= 0 {
			t.Fatalf("accepted %d cores, topology %v, T = %v", m.Cores, m.Topo != nil, m.T)
		}
		if _, err := topology.SpecCores(m.TopoSpec); m.TopoSpec != "" && err != nil {
			t.Fatalf("accepted topo %q: %v", m.TopoSpec, err)
		}
	})
}
