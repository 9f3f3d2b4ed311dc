package topology

// Hierarchical (chiplet) topologies: cores are grouped into chiplets,
// chiplets into chips, chips into packages — each tier a 2D mesh of the
// units below it, with its own link latency, bandwidth and a
// boundary-serialization penalty for crossing the physical package
// boundary. This is the many-core-future machine shape the paper's
// experiments point at (and the one MuchiSim explores): cheap dense links
// inside a chiplet, progressively slower and narrower links between
// chiplets and between chips.
//
// Core numbering is hierarchical row-major: cores within a chiplet are
// consecutive, chiplets within a chip are consecutive, and so on. That
// makes unit membership a pure division (UnitOf) and lets the sharded
// engine's contiguous partitions align exactly with physical boundaries
// (PartitionFor in partition.go).
//
// Adjacent units at tier t ≥ 1 are joined corner-to-corner like the
// paper's clustered meshes: the lower unit's last core connects to the
// next unit's first core, with latency Lat+Penalty.

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"simany/internal/vtime"
)

// Tier describes one level of a hierarchical topology: a W×H mesh of the
// next-lower units (tier 0 arranges individual cores into a chiplet).
type Tier struct {
	W, H int
	// Lat and BW are the parameters of this tier's links. For tier 0 they
	// apply to the chiplet-internal mesh; for higher tiers to the gateway
	// links between adjacent units.
	Lat vtime.Time
	BW  int
	// Penalty is the boundary-serialization cost added to Lat on every
	// gateway link of this tier (crossing a chiplet or chip edge means
	// SerDes and packaging delays on top of wire latency). Ignored for
	// tier 0.
	Penalty vtime.Time
}

// Hierarchy is the tier structure of a chiplet topology, innermost first.
type Hierarchy struct {
	Tiers []Tier
}

// tierNames label the tiers for display; deeper nesting falls back to
// "tier<i>".
var tierNames = []string{"chiplet", "chip", "package", "board"}

// TierName returns the display name of tier i ("chiplet", "chip", ...).
func TierName(i int) string {
	if i < len(tierNames) {
		return tierNames[i]
	}
	return fmt.Sprintf("tier%d", i)
}

// CoresPerUnit returns the number of cores in one unit of tier t: the
// product of the mesh sizes of tiers 0..t.
func (h *Hierarchy) CoresPerUnit(t int) int {
	per := 1
	for i := 0; i <= t; i++ {
		per *= h.Tiers[i].W * h.Tiers[i].H
	}
	return per
}

// NumUnits returns how many tier-t units the machine contains.
func (h *Hierarchy) NumUnits(t int) int {
	return h.CoresPerUnit(len(h.Tiers)-1) / h.CoresPerUnit(t)
}

// UnitOf returns the index of the tier-t unit containing core c.
func (h *Hierarchy) UnitOf(c, t int) int {
	return c / h.CoresPerUnit(t)
}

// EdgeTier returns the tier of the link between adjacent cores a and b: the
// lowest tier whose unit contains both endpoints (0 = chiplet-internal
// mesh link, 1 = chiplet-to-chiplet gateway, ...).
func (h *Hierarchy) EdgeTier(a, b int) int {
	for t := 0; t < len(h.Tiers); t++ {
		if h.UnitOf(a, t) == h.UnitOf(b, t) {
			return t
		}
	}
	return len(h.Tiers) - 1
}

// diameterBound returns an analytic upper bound on the hop diameter. Within
// one tier-0 unit the diameter is the mesh diameter D(0) = (W-1)+(H-1). One
// tier up, a worst-case path crosses up to M(t) = (Wt-1)+(Ht-1) gateways
// and traverses a full lower unit (≤ D(t-1) hops) between each:
//
//	D(t) ≤ D(t-1) + M(t)·(1 + D(t-1))
//
// An upper bound is all the spatial drift bound needs (drift ≤ diameter×T
// is monotone in the diameter), and it is O(tiers) to compute where the
// exact all-pairs BFS is O(n·E).
func (h *Hierarchy) diameterBound() int {
	d := (h.Tiers[0].W - 1) + (h.Tiers[0].H - 1)
	for t := 1; t < len(h.Tiers); t++ {
		m := (h.Tiers[t].W - 1) + (h.Tiers[t].H - 1)
		d = d + m*(1+d)
	}
	return d
}

// String renders the hierarchy as a spec-like summary, e.g.
// "8x8 chiplet × 4x4 chip × 10x10 package".
func (h *Hierarchy) String() string {
	var b strings.Builder
	for i, tr := range h.Tiers {
		if i > 0 {
			b.WriteString(" × ")
		}
		fmt.Fprintf(&b, "%dx%d %s", tr.W, tr.H, TierName(i))
	}
	return b.String()
}

// Chiplet builds a hierarchical topology from the given tiers (innermost
// first). Every tier must have W, H ≥ 1 and at least one tier is required;
// tiers with W·H == 1 are allowed (a "hierarchy" that degenerates at that
// level).
func Chiplet(tiers []Tier) *Topology {
	if len(tiers) == 0 {
		panic("topology: chiplet hierarchy needs at least one tier")
	}
	h := &Hierarchy{Tiers: make([]Tier, len(tiers))}
	copy(h.Tiers, tiers)
	n := 1
	for i, tr := range h.Tiers {
		if tr.W < 1 || tr.H < 1 {
			panic(fmt.Sprintf("topology: invalid %s mesh %dx%d", TierName(i), tr.W, tr.H))
		}
		if tr.BW <= 0 {
			panic(fmt.Sprintf("topology: non-positive bandwidth at %s tier", TierName(i)))
		}
		if tr.Lat < 0 || tr.Penalty < 0 {
			panic(fmt.Sprintf("topology: negative latency at %s tier", TierName(i)))
		}
		n *= tr.W * tr.H
	}

	var edges []Edge
	// Tier 0: one mesh per chiplet.
	t0 := h.Tiers[0]
	per0 := t0.W * t0.H
	for u := 0; u < n/per0; u++ {
		edges = meshEdges(edges, u*per0, t0.W, t0.H, 1, t0.Lat, t0.BW)
	}
	// Higher tiers: corner-to-corner gateways between adjacent units, one
	// unit mesh per enclosing tier-(t+1) unit.
	for t := 1; t < len(h.Tiers); t++ {
		tr := h.Tiers[t]
		per := h.CoresPerUnit(t - 1)
		group := h.CoresPerUnit(t)
		for g := 0; g < n/group; g++ {
			edges = cornerEdges(edges, g*group, tr.W, tr.H, per, tr.Lat, tr.BW, tr.Penalty)
		}
	}

	name := make([]string, len(h.Tiers))
	for i, tr := range h.Tiers {
		name[i] = fmt.Sprintf("%dx%d", tr.W, tr.H)
	}
	top := FromEdges(n, "chiplet-"+strings.Join(name, "-"), edges)
	top.hier = h
	top.diamBound = h.diameterBound()
	return top
}

// Chiplet spec grammar, used by -topo, machine files and simany-topo -gen:
//
//	chiplet:WxH[@LAT[/BW][+PEN]],WxH[...],...
//
// Tiers are listed innermost first. LAT and PEN are cycles (floats allowed),
// BW is bytes per cycle. Omitted parameters default tier by tier: tier 0
// uses the paper's base links (1 cycle, 128 B/cy, no penalty); each higher
// tier defaults to 4× the previous tier's latency, half its bandwidth
// (min 1), and a boundary penalty of half its own latency.

// ParseChipletSpec parses the tier list of a chiplet spec (the part after
// "chiplet:") into a Hierarchy.
func ParseChipletSpec(spec string) (*Hierarchy, error) {
	parts := strings.Split(spec, ",")
	if spec == "" || len(parts) == 0 {
		return nil, fmt.Errorf("topology: empty chiplet spec")
	}
	tiers := make([]Tier, 0, len(parts))
	prevLat := DefaultLatency
	prevBW := DefaultBandwidth
	n := 1
	for i, p := range parts {
		tr := Tier{Lat: prevLat, BW: prevBW}
		if i > 0 {
			if prevLat > vtime.Inf/4 {
				return nil, fmt.Errorf("topology: chiplet spec %q: default latency overflows", p)
			}
			tr.Lat = 4 * prevLat
			tr.BW = prevBW / 2
			if tr.BW < 1 {
				tr.BW = 1
			}
			tr.Penalty = tr.Lat / 2
		}
		dims := p
		if at := strings.IndexByte(p, '@'); at >= 0 {
			dims = p[:at]
			if err := parseTierParams(p[at+1:], &tr); err != nil {
				return nil, fmt.Errorf("topology: chiplet spec %q: %v", p, err)
			}
		}
		w, h, err := parseDims(dims)
		if err == nil {
			n, err = mulCores(n, w*h)
		}
		if err == nil && tr.Lat >= vtime.Inf-tr.Penalty {
			err = fmt.Errorf("latency plus penalty overflows")
		}
		if err != nil {
			return nil, fmt.Errorf("topology: chiplet spec %q: %v", p, err)
		}
		tr.W, tr.H = w, h
		tiers = append(tiers, tr)
		prevLat, prevBW = tr.Lat, tr.BW
	}
	return &Hierarchy{Tiers: tiers}, nil
}

// parseTierParams parses "LAT", "LAT/BW", "LAT+PEN" or "LAT/BW+PEN" into tr.
// An explicit latency resets the default penalty to half of it unless a
// penalty is also given.
func parseTierParams(s string, tr *Tier) error {
	if s == "" {
		return fmt.Errorf("empty tier parameters after '@'")
	}
	pen := ""
	if plus := strings.IndexByte(s, '+'); plus >= 0 {
		pen = s[plus+1:]
		s = s[:plus]
	}
	latS := s
	if sl := strings.IndexByte(s, '/'); sl >= 0 {
		latS = s[:sl]
		bw, err := strconv.Atoi(s[sl+1:])
		if err != nil || bw <= 0 {
			return fmt.Errorf("bad bandwidth %q", s[sl+1:])
		}
		tr.BW = bw
	}
	if latS != "" {
		lat, err := vtime.ParseCycles(latS)
		if err != nil {
			return fmt.Errorf("latency: %v", err)
		}
		tr.Lat = lat
		if tr.Penalty != 0 && pen == "" {
			tr.Penalty = tr.Lat / 2
		}
	}
	if pen != "" {
		p, err := vtime.ParseCycles(pen)
		if err != nil {
			return fmt.Errorf("penalty: %v", err)
		}
		tr.Penalty = p
	}
	return nil
}

// parseDims parses "WxH" with W, H ≥ 1 and W·H within int.
func parseDims(s string) (w, h int, err error) {
	x := strings.IndexByte(s, 'x')
	if x < 0 {
		return 0, 0, fmt.Errorf("want WxH, got %q", s)
	}
	w, err1 := strconv.Atoi(s[:x])
	h, err2 := strconv.Atoi(s[x+1:])
	if err1 != nil || err2 != nil || w < 1 || h < 1 {
		return 0, 0, fmt.Errorf("want WxH, got %q", s)
	}
	if _, err := mulCores(w, h); err != nil {
		return 0, 0, err
	}
	return w, h, nil
}

// mulCores returns a·b for positive core counts, or an error when the
// product overflows int.
func mulCores(a, b int) (int, error) {
	if a > math.MaxInt/b {
		return 0, fmt.Errorf("core count %d×%d overflows", a, b)
	}
	return a * b, nil
}

// ParseSpec builds a topology from a textual spec: "mesh:WxH",
// "torus:WxH", "ring:N", "star:N", "full:N", "clustered:K:N" (K clusters of
// an N-core machine) or "chiplet:<tiers>" (see ParseChipletSpec). A bare
// integer builds the most-square mesh of that many cores.
func ParseSpec(spec string) (*Topology, error) {
	_, build, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// SpecCores checks spec as ParseSpec does and returns the number of cores
// it declares, without building the network.
func SpecCores(spec string) (int, error) {
	n, _, err := parseSpec(spec)
	return n, err
}

// parseSpec validates spec and returns its core count and the constructor
// that builds it; every error ParseSpec can return is found here.
func parseSpec(spec string) (int, func() *Topology, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	count := func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("topology: spec %q: bad core count %q", spec, s)
		}
		return n, nil
	}
	switch kind {
	case "chiplet":
		h, err := ParseChipletSpec(rest)
		if err != nil {
			return 0, nil, err
		}
		return h.CoresPerUnit(len(h.Tiers) - 1), func() *Topology { return Chiplet(h.Tiers) }, nil
	case "mesh", "torus":
		if kind == "mesh" && !strings.Contains(rest, "x") {
			n, err := count(rest)
			return n, func() *Topology { return Mesh(n) }, err
		}
		w, h, err := parseDims(rest)
		if err != nil {
			return 0, nil, fmt.Errorf("topology: spec %q: %v", spec, err)
		}
		build := Mesh2D
		if kind == "torus" {
			build = Torus2D
		}
		return w * h, func() *Topology { return build(w, h, DefaultLatency, DefaultBandwidth) }, nil
	case "ring", "star", "full":
		n, err := count(rest)
		build := map[string]func(int, vtime.Time, int) *Topology{"ring": Ring, "star": Star, "full": FullyConnected}[kind]
		return n, func() *Topology { return build(n, DefaultLatency, DefaultBandwidth) }, err
	case "clustered":
		kS, nS, ok := strings.Cut(rest, ":")
		k, err1 := strconv.Atoi(kS)
		n, err2 := strconv.Atoi(nS)
		if !ok || err1 != nil || err2 != nil || k < 1 || n < 1 || n%k != 0 {
			return 0, nil, fmt.Errorf("topology: spec %q: want clustered:K:N with K dividing N", spec)
		}
		return n, func() *Topology { return Clustered(n, DefaultClusteredParams(k)) }, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 {
		return 0, nil, fmt.Errorf("topology: unknown spec %q", spec)
	}
	return n, func() *Topology { return Mesh(n) }, nil
}
