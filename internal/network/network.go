// Package network models the on-chip interconnect.
//
// Messages are timed analytically at send time by walking the
// shortest-latency route: each traversed link charges its latency plus the
// serialization time of the message (size split into chunks at the link's
// bandwidth), and contention is modeled per directed link with a
// next-free-time, as the paper highlights ("we do model contention on
// individual links", §VII). Each hop additionally pays a routing penalty.
//
// # Per-pair FIFO
//
// A core receives the messages of another given core in the order that
// core sent them; only messages from different senders may be handled out
// of order (§II.B). The model guarantees this by construction, with no
// per-pair state: a pair's route is fixed, and a link's next-free time
// only grows. If an earlier send of the pair starts hop k at s_k and
// occupies the link for o_k, a later send starts that hop at s'_k ≥ s_k +
// o_k, since the link is busy until then. It leaves the hop at s'_k + o'_k
// + lat_k + router, no earlier than the earlier send did, so the induction
// carries to the next hop, and the later send arrives no earlier, whatever
// either message's stamp or size. This needs the walks of one pair to be
// totally ordered in host time, and on both engines they are: a route
// inside one shard is only walked by that shard's worker, any other only
// by the single-threaded barrier. FuzzPairFIFO pins the property.
package network

import (
	"fmt"

	"simany/internal/metrics"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// Kind distinguishes message purposes; the simulator kernel and the task
// run-time system define the concrete values they exchange.
type Kind int

// Message is one architectural message in flight.
type Message struct {
	Src, Dst int
	Kind     Kind
	Size     int // payload bytes
	Payload  any

	// Stamp is the sender's virtual time when the message was emitted.
	Stamp vtime.Time
	// Arrival is the computed virtual arrival time at Dst.
	Arrival vtime.Time
}

// Params tunes the fine-grain network behaviour (§III "Architecture
// Variability": message chunk size, chunk processing time, routing
// penalty).
type Params struct {
	// ChunkSize is the flit/packet payload unit in bytes.
	ChunkSize int
	// RouterDelay is the per-hop routing penalty.
	RouterDelay vtime.Time
	// MinSize is the minimum effective size of any message (header).
	MinSize int
}

// DefaultParams returns the parameters used by the paper-style
// configurations.
func DefaultParams() Params {
	return Params{
		ChunkSize:   32,
		RouterDelay: vtime.Cycles(0.5),
		MinSize:     8,
	}
}

// Model is the interconnect simulator.
type Model struct {
	topo   *topology.Topology //simany:derived immutable topology handed to New
	params Params             //simany:derived immutable model parameters from New

	// next[src][dst] holds the index (into the topology's neighbor list
	// of src) of the next hop toward dst, -1 at the destination itself.
	// It is the dense router used for flat topologies; hierarchical
	// (chiplet) topologies leave it nil and route through hier, whose
	// per-tier tables are shared by every unit of a tier — a 100k-core
	// machine cannot afford the O(n²) dense table (20 GB of int16).
	//
	//simany:derived routing table, recomputed by New from the topology
	next [][]int16
	//simany:derived hierarchical routing tables, recomputed by New from the topology
	hier *hierRouter

	// Per-link arrays, indexed by the topology's flat link index
	// (topology.FirstLink): latency and bandwidth are the topology's own
	// arrays, never copied; free is each link's contention next-free time.
	lat  []vtime.Time //simany:derived the topology's link latencies, rebuilt by New
	bw   []int        //simany:derived the topology's link bandwidths, rebuilt by New
	free []vtime.Time

	// The counters live in the registry the model was built in. msgs
	// (net.msgs) counts the messages each source emitted: the one message
	// count, whose entry for a source is only advanced from that source's
	// execution context. hops and bytes (net.hops, net.bytes) are striped
	// by the source's shard: during a round, Send only runs on behalf of
	// sources owned by the executing shard, so no stripe is ever contended.
	msgs  *metrics.Vector  //simany:derived alias into the registry, whose section encodes it
	hops  *metrics.Counter //simany:derived alias into the registry, whose section encodes it
	bytes *metrics.Counter //simany:derived alias into the registry, whose section encodes it
	//simany:derived stripe map, the kernel partition handed to NewIn
	stripeOf []int // node -> stripe; nil = everything on stripe 0

	// obs, when non-nil, receives fine-grain timing observations from
	// Send. Install it before the simulation runs.
	//
	//simany:derived observability attachment installed before Run, never checkpoint state
	obs Observer
}

// Observer receives fine-grain timing observations from the model. Under
// sharded execution Send runs concurrently for routes owned by different
// shards, so implementations must tolerate concurrent calls for nodes of
// different shards; calls for any single node are never concurrent (a
// node's outgoing links belong to exactly one shard, and cross-shard
// routes are only walked by the single-threaded barrier).
type Observer interface {
	// LinkWait reports that a message waited wait > 0 for the directed
	// link out of node (neighbor index nbIdx) to become free before
	// occupying it — the per-link contention the model charges.
	LinkWait(node, nbIdx int, wait vtime.Time)
}

// New builds a network model over a topology, counting into a registry of
// its own with one stripe. It panics if the topology is disconnected,
// since every core must be reachable.
func New(t *topology.Topology, p Params) *Model {
	return NewIn(metrics.New(), nil, t, p)
}

// NewIn is New registering the model's counters in reg (setup time): hops
// and bytes are striped by stripeOf[src], the shard owning the source
// (nil puts everything on stripe 0).
func NewIn(reg *metrics.Registry, stripeOf []int, t *topology.Topology, p Params) *Model {
	if !t.Connected() {
		panic("network: topology is disconnected")
	}
	if p.ChunkSize <= 0 {
		p.ChunkSize = 32
	}
	m := &Model{
		topo:     t,
		params:   p,
		lat:      t.LinkLatencies(),
		bw:       t.LinkBandwidths(),
		free:     make([]vtime.Time, t.NumLinks()),
		msgs:     reg.Vector("net.msgs", metrics.UnitCount, t.N()),
		hops:     reg.Counter("net.hops", metrics.UnitCount),
		bytes:    reg.Counter("net.bytes", metrics.UnitCount),
		stripeOf: stripeOf,
	}
	// Dense next-hop tables: by BFS when every link has the same latency
	// (hop count is then the metric), by Dijkstra otherwise.
	if h := t.Hierarchy(); h != nil {
		m.hier = newHierRouter(h)
	} else if m.uniformLatency() {
		m.next = m.bfsRoutes()
	} else {
		m.next = m.dijkstraRoutes()
	}
	return m
}

// walk is the routing state of one route toward dst, the single routing
// loop behind Transmit, AppendRoute, RouteWithin and MinLatency:
//
//	w := m.walkFrom(src, dst)
//	for cur := src; cur != dst; {
//		j, next := w.hop(cur)
//		...
//		cur = next
//	}
//
// Flat topologies read the dense next-hop table at every hop. Hierarchical
// topologies keep the tier-0 target of the chiplet the walk is in (tgt)
// and the gateway core beyond it (gw): a hop inside the chiplet is one
// tier-0 table read, and the tiers are descended again only after the walk
// crosses a gateway into the next chiplet (route_hier.go).
type walk struct {
	m            *Model
	dst          int
	tgt, gw, off int // hierarchical only: see chipletTarget; off = first core of tgt's chiplet
}

// walkFrom starts a walk at src toward dst.
func (m *Model) walkFrom(src, dst int) walk {
	w := walk{m: m, dst: dst}
	if m.hier != nil {
		w.enterChiplet(src)
	}
	return w
}

// enterChiplet descends the tiers for the chiplet the walk enters at cur.
func (w *walk) enterChiplet(cur int) {
	h := w.m.hier
	w.tgt, w.gw = h.chipletTarget(cur, w.dst)
	w.off = cur / h.per[0] * h.per[0]
}

// hop returns the link the route takes out of cur (cur != dst), as an index
// into cur's neighbor list, and the core it leads to.
func (w *walk) hop(cur int) (j, next int) {
	m := w.m
	if m.hier != nil {
		return w.hierHop(cur)
	}
	j = int(m.next[cur][w.dst])
	return j, m.topo.Neighbors(cur)[j]
}

// hierHop is hop on a hierarchical topology: a tier-0 table step toward
// tgt, or the gateway link once the walk stands on tgt.
func (w *walk) hierHop(cur int) (j, next int) {
	if cur == w.tgt {
		next = w.gw
		w.enterChiplet(next)
	} else {
		h := w.m.hier
		next = w.off + int(h.local[0][(cur-w.off)*h.per[0]+w.tgt-w.off])
	}
	for j, nb := range w.m.topo.Neighbors(cur) {
		if nb == next {
			return j, next
		}
	}
	panic(fmt.Sprintf("network: hierarchical route %d -> %d proposes non-neighbor %d", cur, w.dst, next))
}

// nbIndex returns the index of neighbor nb in node's neighbor list.
func (m *Model) nbIndex(node, nb int) int {
	nbs := m.topo.Neighbors(node)
	for j, v := range nbs {
		if v == nb {
			return j
		}
	}
	panic("network: not a neighbor")
}

// newRouteTable returns an n × n next-hop table over one flat backing
// array, every entry -1.
func newRouteTable(n int) [][]int16 {
	next := make([][]int16, n)
	flat := make([]int16, n*n)
	for i := range flat {
		flat[i] = -1
	}
	for src := range next {
		next[src] = flat[src*n : (src+1)*n : (src+1)*n]
	}
	return next
}

// bfsRoutes builds the next-hop table with one BFS per destination. The
// FIFO queue visits nodes in non-decreasing hop distance, and each node
// keeps the first-dequeued parent as its next hop. That is Dijkstra's
// lowest-id tie-break on meshes and odd rings, but not on every shape: on
// tori and even rings the two tables differ.
func (m *Model) bfsRoutes() [][]int16 {
	n := m.topo.N()
	next := newRouteTable(n)
	queue := make([]int32, 0, n)
	dist := make([]int32, n)
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], int32(dst))
		for len(queue) > 0 {
			node := int(queue[0])
			queue = queue[1:]
			for _, nb := range m.topo.Neighbors(node) {
				if dist[nb] < 0 {
					dist[nb] = dist[node] + 1
					next[nb][dst] = int16(m.nbIndex(nb, node))
					queue = append(queue, int32(nb))
				}
			}
		}
	}
	return next
}

// dijkstraRoutes builds the next-hop table with one Dijkstra pass per
// destination over the reversed (symmetric) graph; among equally short
// routes the lowest-numbered next hop wins.
func (m *Model) dijkstraRoutes() [][]int16 {
	n := m.topo.N()
	next := newRouteTable(n)
	dist := make([]vtime.Time, n)
	nextNode := make([]int32, n) // node id of chosen next hop, for ties
	var pq nodeHeap
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = vtime.Inf
			nextNode[i] = -1
		}
		dist[dst] = 0
		pq = append(pq[:0], nodeItem{node: dst, d: 0})
		for len(pq) > 0 {
			it := pq.pop()
			if it.d > dist[it.node] {
				continue
			}
			for jIdx, nb := range m.topo.Neighbors(it.node) {
				// Symmetric links: latency nb->it.node equals
				// it.node->nb, read from it.node's link.
				w := m.lat[m.topo.FirstLink(it.node)+jIdx]
				// Edge weight must be positive so routes make progress;
				// zero-latency links count one millicycle for routing.
				if w <= 0 {
					w = 1
				}
				nd := it.d + w
				if nd < dist[nb] || (nd == dist[nb] && (nextNode[nb] < 0 || int32(it.node) < nextNode[nb])) {
					if nd < dist[nb] {
						dist[nb] = nd
						pq.push(nodeItem{node: nb, d: nd})
					}
					nextNode[nb] = int32(it.node)
					next[nb][dst] = int16(m.nbIndex(nb, it.node))
				}
			}
		}
	}
	return next
}

// uniformLatency reports whether every link has the same latency.
func (m *Model) uniformLatency() bool {
	for _, l := range m.lat {
		if l != m.lat[0] {
			return false
		}
	}
	return true
}

type nodeItem struct {
	node int
	d    vtime.Time
}

// nodeHeap is a minimal binary min-heap ordered by (d, node); hand-rolled
// to avoid the interface boxing of container/heap on this hot path.
type nodeHeap []nodeItem

func (h nodeHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].node < h[j].node
}

func (h *nodeHeap) push(it nodeItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *nodeHeap) pop() nodeItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old = old[:last]
	*h = old
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(old) && old.less(l, small) {
			small = l
		}
		if r < len(old) && old.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// AppendRoute appends the full path from src to dst (inclusive of both
// ends) to path and returns the extended slice, reusing the caller's
// storage — pass a slice with spare capacity and no allocation happens.
func (m *Model) AppendRoute(path []int, src, dst int) []int {
	path = append(path, src)
	w := m.walkFrom(src, dst)
	for cur := src; cur != dst; {
		_, cur = w.hop(cur)
		path = append(path, cur)
	}
	return path
}

// chunks returns the number of chunks a message of size bytes occupies.
// The size is first clamped up to the MinSize header floor; the occupancy
// is always at least one chunk, which only needs stating explicitly for
// configurations with no header floor (MinSize <= 0), since a positive
// clamped size already rounds up to one.
func (m *Model) chunks(size int) int64 {
	if size < m.params.MinSize {
		size = m.params.MinSize
	}
	if size <= 0 { // only reachable when MinSize <= 0
		return 1
	}
	return int64((size + m.params.ChunkSize - 1) / m.params.ChunkSize)
}

// serialization is the time a message's chunks occupy a link: chunk bytes
// over the link's bandwidth, in cycles. The quotient is memoised on the
// bandwidth, because a route crosses few bandwidth classes (one per tier
// of a chiplet machine, one in all on a uniform mesh) and the 64-bit
// division would otherwise run at every hop.
type serialization struct {
	bytes int64
	bw    int
	ser   vtime.Time
}

// serOf returns the serialization of a message of size bytes.
func (m *Model) serOf(size int) serialization {
	return serialization{bytes: m.chunks(size) * int64(m.params.ChunkSize)}
}

// on returns the serialization time on a link of bandwidth bw (zero when
// bw ≤ 0, which the zero memo already holds for bw == 0).
func (s *serialization) on(bw int) vtime.Time {
	if bw != s.bw {
		s.bw, s.ser = bw, 0
		if bw > 0 {
			//lint:allow rawvtime fixed-point serialization: Cycle is the millicycles-per-cycle scale constant, not a timestamp
			s.ser = vtime.Time(int64(vtime.Cycle) * s.bytes / int64(bw))
		}
	}
	return s.ser
}

// Send is Transmit for a message passed by value: it returns the routed
// copy.
func (m *Model) Send(msg Message) Message {
	m.Transmit(&msg)
	return msg
}

// Transmit routes msg in place: it computes the arrival time of a message
// emitted at msg.Stamp from msg.Src to msg.Dst, updates link contention
// state, fills in Arrival and counts the route's hops in net.hops.
// Sending to self arrives immediately. Arrivals of one (Src, Dst) pair
// never decrease in the order the pair is routed, by construction (see the
// package doc). Transmit performs no heap allocation.
func (m *Model) Transmit(msg *Message) {
	// The fields the walk reads live in locals: writes to link state
	// through the model's slices could otherwise alias *msg and force a
	// reload at every hop.
	src, dst := msg.Src, msg.Dst
	m.msgs.Inc(src)
	stripe := 0
	if m.stripeOf != nil {
		stripe = m.stripeOf[src]
	}
	m.bytes.Add(stripe, int64(msg.Size))
	t := msg.Stamp
	if src == dst {
		msg.Arrival = t
		return
	}
	ser := m.serOf(msg.Size)
	hops := 0
	w := m.walkFrom(src, dst)
	for cur := src; cur != dst; hops++ {
		j, next := w.hop(cur)
		l := m.topo.FirstLink(cur) + j
		occupy := ser.on(m.bw[l])
		// Contention: wait for the link to be free, then occupy it for the
		// serialization time.
		start := vtime.Max(t, m.free[l])
		if m.obs != nil && start > t {
			m.obs.LinkWait(cur, j, start-t)
		}
		m.free[l] = start + occupy
		t = start + occupy + m.lat[l] + m.params.RouterDelay
		cur = next
	}
	m.hops.Add(stripe, int64(hops))
	msg.Arrival = t
}

// SetObserver installs (or removes, with nil) the timing observer. Call
// before the simulation starts; the field is read on every Send.
func (m *Model) SetObserver(o Observer) { m.obs = o }

// Stats reports the cumulative message count, hop count and payload bytes
// from the model's counters in its registry. Call from a single-threaded
// context (the barrier, or after Run returns).
func (m *Model) Stats() (messages, hops, bytes int64) {
	return m.msgs.Sum(), m.hops.Value(), m.bytes.Value()
}

// RouteWithin reports whether the route from src to dst stays entirely
// inside one part of the given node assignment (as produced by
// topology.Partition). The sharded kernel uses it to decide which messages
// can be routed synchronously without touching link state owned by another
// shard.
func (m *Model) RouteWithin(src, dst int, part []int) bool {
	p := part[src]
	if part[dst] != p {
		return false
	}
	w := m.walkFrom(src, dst)
	for cur := src; cur != dst; {
		if _, cur = w.hop(cur); part[cur] != p {
			return false
		}
	}
	return true
}

// MinLatency returns the uncontended end-to-end latency from src to dst for
// a message of the given size.
func (m *Model) MinLatency(src, dst, size int) vtime.Time {
	ser := m.serOf(size)
	var t vtime.Time
	w := m.walkFrom(src, dst)
	for cur := src; cur != dst; {
		j, next := w.hop(cur)
		l := m.topo.FirstLink(cur) + j
		t += ser.on(m.bw[l]) + m.lat[l] + m.params.RouterDelay
		cur = next
	}
	return t
}
