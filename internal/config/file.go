package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// Machine description files give the full architecture in one place, in
// the spirit of SiMany's configuration files (§III): organization, memory,
// synchronization and (optionally) an external adjacency-matrix topology.
//
//	# 256-core clustered machine
//	cores 256
//	style clustered4
//	mem distributed
//	policy spatial
//	T 100
//	seed 7
//	speedaware on
//	topology custom.topo     # optional, overrides cores/style
//	topo chiplet:8x8,4x4     # optional textual spec, overrides cores/style
//
// Unknown keys are rejected so typos fail loudly.

// ParseMachine reads a machine description. resolve loads referenced
// topology files (nil forbids references, for sandboxed parsing).
func ParseMachine(r io.Reader, resolve func(path string) (io.ReadCloser, error)) (Machine, error) {
	m := Machine{T: vtime.CyclesInt(100)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		val = strings.TrimSpace(val)
		if !ok || val == "" {
			return m, fmt.Errorf("config: line %d: %q needs a value", lineNo, key)
		}
		switch key {
		case "cores":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return m, fmt.Errorf("config: line %d: bad core count %q", lineNo, val)
			}
			m.Cores = n
		case "style":
			st, err := ParseStyle(val)
			if err != nil {
				return m, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			m.Style = st
		case "mem":
			mk, err := ParseMem(val)
			if err != nil {
				return m, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			m.Mem = mk
		case "policy":
			m.Policy = val
		case "T":
			t, err := vtime.ParseCycles(val)
			if err != nil || t == 0 {
				return m, fmt.Errorf("config: line %d: T %q: want a cycle count of at least 0.001", lineNo, val)
			}
			m.T = t
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return m, fmt.Errorf("config: line %d: bad seed %q", lineNo, val)
			}
			m.Seed = s
		case "speedaware":
			switch val {
			case "on", "true", "yes":
				m.SpeedAwareRT = true
			case "off", "false", "no":
				m.SpeedAwareRT = false
			default:
				return m, fmt.Errorf("config: line %d: bad speedaware %q", lineNo, val)
			}
		case "topology":
			if resolve == nil {
				return m, fmt.Errorf("config: line %d: topology references not allowed here", lineNo)
			}
			f, err := resolve(val)
			if err != nil {
				return m, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			topo, err := topology.ParseAdjacency(f)
			f.Close()
			if err != nil {
				return m, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			m.Topo = topo
		case "topo":
			// Validate the spec at parse time so a typo fails on this
			// line, not later inside Build, without building the
			// (possibly 100k-core) network.
			if _, err := topology.SpecCores(val); err != nil {
				return m, fmt.Errorf("config: line %d: %w", lineNo, err)
			}
			m.TopoSpec = val
		default:
			return m, fmt.Errorf("config: line %d: unknown key %q", lineNo, key)
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if m.Cores == 0 && m.Topo == nil {
		return m, fmt.Errorf("config: machine file declares neither cores nor topology")
	}
	return m, nil
}

// LoadMachineFile parses a machine description from disk; topology
// references resolve relative to the file's directory.
func LoadMachineFile(path string) (Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return Machine{}, err
	}
	defer f.Close()
	dir := filepath.Dir(path)
	return ParseMachine(f, func(ref string) (io.ReadCloser, error) {
		if !filepath.IsAbs(ref) {
			ref = filepath.Join(dir, ref)
		}
		return os.Open(ref)
	})
}

// WriteMachine serializes m in the machine-file format (without topology
// references; explicit topologies are written separately).
func WriteMachine(w io.Writer, m Machine) error {
	t := m.T
	if t == 0 {
		t = vtime.CyclesInt(100)
	}
	_, err := fmt.Fprintf(w, "cores %d\nstyle %s\nmem %s\npolicy %s\nT %g\nseed %d\nspeedaware %v\n",
		m.Cores, m.Style, m.Mem, policyOrDefault(m.Policy), t.InCycles(), m.Seed, m.SpeedAwareRT)
	return err
}

func policyOrDefault(p string) string {
	if p == "" {
		return "spatial"
	}
	return p
}
