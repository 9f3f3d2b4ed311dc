package network

// Hierarchical routing for chiplet topologies (topology.Chiplet). The
// dense next-hop table is O(n²) — 20 GB of int16 at 100k cores — but every
// unit of a tier is identical, so one next-step table per tier suffices:
// tier 0 routes within a chiplet's core mesh, tier t ≥ 1 routes between
// the tier-(t-1) units arranged in that tier's unit mesh. A route descends
// from the highest tier where source and destination differ: head for the
// exit corner of the current unit, take the gateway link, repeat.
//
// This is hierarchical (dimension-ordered at each tier) routing, the
// scheme real chiplet NoCs use — not the globally latency-optimal path a
// full Dijkstra would find, which may cut through a unit at an angle the
// corner gateways cannot express anyway. It is deterministic: the tables
// depend only on the hierarchy parameters.
//
// The descent only changes its answer when the route leaves a chiplet: as
// long as the walk stays inside one, every unit enclosing it at tiers ≥ 1
// is the same, so the chain of exit corners is the same too. The walker
// (walk in network.go) therefore descends once per chiplet it enters
// (chipletTarget) and steps through the chiplet's mesh with the tier-0
// table alone.

import (
	"simany/internal/topology"
)

type hierRouter struct {
	per []int // per[t] = cores per tier-t unit
	// local[t] is the shared next-step table of tier t: for tier 0,
	// positions are core offsets within a chiplet; for t ≥ 1, positions
	// are tier-(t-1) unit offsets within a tier-t unit. local[t][a*k+b]
	// is the position adjacent to a on the shortest mesh path toward b
	// (k = positions per unit at that tier), -1 when a == b.
	local [][]int16
}

func newHierRouter(h *topology.Hierarchy) *hierRouter {
	r := &hierRouter{
		per:   make([]int, len(h.Tiers)),
		local: make([][]int16, len(h.Tiers)),
	}
	for t, tr := range h.Tiers {
		r.per[t] = h.CoresPerUnit(t)
		r.local[t] = meshNext(tr.W, tr.H)
	}
	return r
}

// meshNext builds the next-step table of a w×h mesh: tab[a*n+b] is the
// position adjacent to a on the BFS-shortest path toward b, with ties
// broken toward the lowest-numbered position (matching the dense router's
// tie-break), and -1 on the diagonal.
func meshNext(w, h int) []int16 {
	n := w * h
	tab := make([]int16, n*n)
	for i := range tab {
		tab[i] = -1
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)
	// nbs lists mesh neighbors of p in increasing position order.
	nbs := func(p int) [4]int {
		x, y := p%w, p/w
		out := [4]int{-1, -1, -1, -1}
		i := 0
		if y > 0 {
			out[i] = p - w
			i++
		}
		if x > 0 {
			out[i] = p - 1
			i++
		}
		if x+1 < w {
			out[i] = p + 1
			i++
		}
		if y+1 < h {
			out[i] = p + w
		}
		return out
	}
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			node := queue[0]
			queue = queue[1:]
			for _, nb := range nbs(node) {
				if nb >= 0 && dist[nb] < 0 {
					dist[nb] = dist[node] + 1
					tab[nb*n+dst] = int16(node)
					queue = append(queue, nb)
				}
			}
		}
	}
	return tab
}

// chipletTarget descends the hierarchy once for a route that has just
// entered cur's chiplet on its way to dst. It returns the core of this
// chiplet the route heads for — dst itself when dst is in the chiplet,
// otherwise the exit corner the descent settles on — and gw, the core
// beyond that corner's gateway link (-1 when tgt == dst). At the
// lowest tier whose unit contains both cores the descent either stops at
// the gateway (cur sits on the exit corner) or retargets to the exit corner
// and recurses downward, until the target lies in cur's chiplet.
func (r *hierRouter) chipletTarget(cur, dst int) (tgt, gw int) {
	gw = -1
	for {
		if cur == dst {
			return cur, gw
		}
		tier := 0
		for cur/r.per[tier] != dst/r.per[tier] {
			tier++
		}
		if tier == 0 {
			return dst, gw
		}
		per := r.per[tier-1]          // cores per lower unit
		group := r.per[tier]          // cores per this unit
		base := (cur / group) * group // first core of the enclosing unit
		ua := (cur - base) / per
		ub := (dst - base) / per
		k := group / per // lower units per unit at this tier
		un := int(r.local[tier][ua*k+ub])
		// Gateways join a unit's last core to the next unit's first core,
		// so the exit corner depends on the travel direction.
		if un > ua {
			dst, gw = base+ua*per+per-1, base+un*per
		} else {
			dst, gw = base+ua*per, base+un*per+per-1
		}
	}
}
