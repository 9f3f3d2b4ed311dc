package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"simany/internal/vtime"
)

// The adjacency file format, as in SiMany's configuration files, gives the
// connections between cores as an adjacency matrix. Our textual form is:
//
//	# comment
//	cores N
//	link A B [latency_cycles [bandwidth_bytes_per_cycle]]
//	...
//
// or a raw 0/1 matrix after the "matrix" keyword, one row per line, using
// the default latency and bandwidth:
//
//	cores N
//	matrix
//	0 1 0 ...
//	...
//
// Both directions of a link are created from a single declaration.

// ParseAdjacency reads a topology description from r.
func ParseAdjacency(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := 0 // declared core count, 0 before the cores line
	var edges []Edge
	lineNo := 0
	inMatrix := false
	matrixRow := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if inMatrix {
			if len(fields) != n {
				return nil, fmt.Errorf("topology: line %d: matrix row has %d entries, want %d", lineNo, len(fields), n)
			}
			for col, f := range fields {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: bad matrix entry %q", lineNo, f)
				}
				if v != 0 && col > matrixRow {
					edges = append(edges, Edge{matrixRow, col, DefaultLatency, DefaultBandwidth})
				}
			}
			matrixRow++
			if matrixRow == n {
				inMatrix = false
			}
			continue
		}
		switch fields[0] {
		case "cores":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: cores takes one argument", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("topology: line %d: bad core count %q", lineNo, fields[1])
			}
			n, edges = v, nil
		case "matrix":
			if n == 0 {
				return nil, fmt.Errorf("topology: line %d: matrix before cores", lineNo)
			}
			inMatrix = true
			matrixRow = 0
		case "link":
			if n == 0 {
				return nil, fmt.Errorf("topology: line %d: link before cores", lineNo)
			}
			if len(fields) < 3 || len(fields) > 5 {
				return nil, fmt.Errorf("topology: line %d: link takes 2-4 arguments", lineNo)
			}
			a, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("topology: line %d: bad link endpoints", lineNo)
			}
			lat := DefaultLatency
			bw := DefaultBandwidth
			if len(fields) >= 4 {
				var err error
				if lat, err = vtime.ParseCycles(fields[3]); err != nil {
					return nil, fmt.Errorf("topology: line %d: latency: %v", lineNo, err)
				}
			}
			if len(fields) == 5 {
				v, err := strconv.Atoi(fields[4])
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("topology: line %d: bad bandwidth %q", lineNo, fields[4])
				}
				bw = v
			}
			if a < 0 || a >= n || b < 0 || b >= n || a == b {
				return nil, fmt.Errorf("topology: line %d: invalid link %d-%d", lineNo, a, b)
			}
			edges = append(edges, Edge{a, b, lat, bw})
		default:
			return nil, fmt.Errorf("topology: line %d: unknown keyword %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("topology: no cores declaration found")
	}
	if inMatrix {
		return nil, fmt.Errorf("topology: truncated adjacency matrix")
	}
	return FromEdges(n, "file", edges), nil
}

// WriteAdjacency writes t in the link-list textual form readable by
// ParseAdjacency.
func WriteAdjacency(w io.Writer, t *Topology) error {
	if _, err := fmt.Fprintf(w, "# topology %s\ncores %d\n", t.Name(), t.N()); err != nil {
		return err
	}
	for _, l := range t.Links() {
		if l.From > l.To {
			continue // each symmetric pair written once
		}
		if _, err := fmt.Fprintf(w, "link %d %d %g %d\n", l.From, l.To, l.Latency.InCycles(), l.Bandwidth); err != nil {
			return err
		}
	}
	return nil
}
