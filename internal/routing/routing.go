// Package routing implements the routing algorithms used by the DRAIN
// paper's evaluation (Table II): dimension-order (XY) routing on regular
// meshes, fully adaptive minimal routing on arbitrary graphs, and
// topology-agnostic up*/down* routing for irregular/faulty networks.
//
// All algorithms are table-driven: NewTable precomputes the per-
// destination structures once per topology (the paper recomputes routing
// state offline whenever a fault occurs), and Candidates answers per-hop
// queries without allocation.
package routing

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"drain/internal/topology"
)

// Kind selects a routing algorithm.
type Kind int

const (
	// AdaptiveMinimal routes over any output that strictly reduces the
	// BFS hop distance to the destination ("fully adaptive random" in the
	// paper once the caller randomizes among candidates).
	AdaptiveMinimal Kind = iota
	// XY is dimension-order routing on a 2D mesh: X fully, then Y.
	// Deadlock-free on fault-free meshes; unusable with faults.
	XY
	// UpDown is up*/down* routing over a BFS spanning tree: a route may
	// never take an "up" link after a "down" link. Deadlock-free on any
	// connected topology, at the cost of non-minimal paths.
	UpDown
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case AdaptiveMinimal:
		return "adaptive"
	case XY:
		return "xy"
	case UpDown:
		return "updown"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Candidate is one legal output for a packet at a router, packed into 4
// bytes because the candidate arenas are most of a table: the link ID in
// the low 30 bits, Productive in bit 30, DownPhase in bit 31.
type Candidate uint32

const (
	candProductive Candidate = 1 << 30
	candDownPhase  Candidate = 1 << 31
)

func newCandidate(link int, downPhase, productive bool) Candidate {
	c := Candidate(link)
	if downPhase {
		c |= candDownPhase
	}
	if productive {
		c |= candProductive
	}
	return c
}

// LinkID is the outgoing unidirectional link to take.
func (c Candidate) LinkID() int { return int(c &^ (candProductive | candDownPhase)) }

// DownPhase is the packet's up*/down* phase after taking this link (true
// once any down link has been taken). Meaningless for other algorithms,
// which leave it false.
func (c Candidate) DownPhase() bool { return c&candDownPhase != 0 }

// Productive reports whether the hop strictly reduces the true BFS
// distance to the destination (used for misroute accounting).
func (c Candidate) Productive() bool { return c&candProductive != 0 }

// String implements fmt.Stringer.
func (c Candidate) String() string {
	return fmt.Sprintf("{link %d down=%t productive=%t}", c.LinkID(), c.DownPhase(), c.Productive())
}

// Table holds precomputed routing state for one topology.
//
// Routing is static per topology. Construction computes the distances;
// every candidate kind, and the up*/down* numbering behind the up*/down*
// kinds, is built the first time it is read, so a table costs what its
// readers route with. Candidates and AllOutputs return those shared
// slices directly: callers MUST treat them as read-only and MUST NOT
// append to, re-sort, or otherwise mutate them (doing so would corrupt the
// answer for every later query). Copy first if a mutable view is needed.
//
// Any goroutine may read a table; there is nothing to declare. A part is
// built once, under the table's lock, and published by its ready flag:
// a reader that finds the flag set reads state nothing writes again.
type Table struct {
	g    *topology.Graph
	mesh *topology.Mesh // nil unless XY requested

	// out[at][i] is the candidate LinkID of the hop at -> Neighbors(at)[i]:
	// the graph's own OutLinks, or for a remapped table their IDs in the
	// full topology's link-ID space.
	out [][]int

	dist   [][]int // dist[r][dst] BFS hop distance
	udRoot int

	// ready[p] is set once part p is built. Everything below it is
	// written only under mu, before its part's flag.
	ready [numParts]atomic.Bool
	mu    sync.Mutex

	// The up*/down* numbering (partNumbering): order defines link
	// direction; distUD is indexed [dst*2N + router*2 + phase] where phase
	// 1 means "has gone down".
	udOrder []int
	distUD  []int32

	sets [partNumbering]candSet // the candidate parts, by part
}

// part is one piece of a table that is built on first read.
type part uint8

const (
	partAdaptive  part = iota // AdaptiveMinimal (phase-independent)
	partXY                    // XY; every set empty without a mesh
	partUp                    // UpDown before any down link
	partDown                  // UpDown once a down link has been taken
	partAllOut                // every output, neighbor order
	partNumbering             // the up*/down* numbering; holds no candidates
	numParts
)

// candSet is every candidate set of one kind: pair i = at*N+dst owns
// arena[off[i]:off[i+1]]. The arena holds exactly the candidates
// generated, in pair order, so a table costs 4 bytes per pair plus 4 per
// candidate instead of a 24-byte slice header per pair plus 16.
type candSet struct {
	off   []uint32 // N*N+1 offsets into arena
	arena []Candidate
}

// at returns pair i's set with its capacity clipped, or nil when it is
// empty (callers and tests compare against nil, and a zero-length slice
// into the arena would pin nothing but read as non-nil).
func (s *candSet) at(i int) []Candidate {
	lo, hi := s.off[i], s.off[i+1]
	if lo == hi {
		return nil
	}
	return s.arena[lo:hi:hi]
}

// need returns once part p of t is built. Every read of built state goes
// through it: after the first build it is one load of p's ready flag,
// inlined into the accessor.
func (t *Table) need(p part) {
	if !t.ready[p].Load() {
		t.build(p)
	}
}

// NewTable precomputes routing state for g. mesh may be nil; it is
// required only to answer XY queries. up*/down* numbering is rooted at
// router 0 over a BFS spanning tree.
func NewTable(g *topology.Graph, mesh *topology.Mesh) (*Table, error) {
	return NewTableWithRoot(g, mesh, 0)
}

// NewTableWithRoot is NewTable with an explicit up*/down* root router.
// Root placement determines how much up*/down* stretches routes and how
// badly traffic concentrates around the root (classic Autonet-style
// numbering picks an arbitrary root; the paper's Fig. 5 gap follows).
func NewTableWithRoot(g *topology.Graph, mesh *topology.Mesh, root int) (*Table, error) {
	out := make([][]int, g.N())
	for r := range out {
		out[r] = g.OutLinks(r)
	}
	return buildTable(g, mesh, root, out)
}

// buildTable builds the table over g, naming hops by the link IDs in out
// (see Table.out).
func buildTable(g *topology.Graph, mesh *topology.Mesh, root int, out [][]int) (*Table, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("routing: topology is disconnected")
	}
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("routing: up*/down* root %d out of range", root)
	}
	// Bounds every arena offset, and with it every link ID to 30 bits.
	if int64(g.N())*int64(g.NumLinks()) > math.MaxUint32 {
		return nil, fmt.Errorf("routing: %d routers x %d links overflow the candidate index", g.N(), g.NumLinks())
	}
	return &Table{g: g, mesh: mesh, out: out, dist: g.AllPairsDist(), udRoot: root}, nil
}

// NewTableRemapped builds routing state over the active subgraph (the
// topology with currently-failed links removed) but expresses every
// candidate's LinkID in full's link-ID space, so a network whose dense
// per-link arrays were sized for the full topology can swap the table in
// mid-run without renumbering anything.
//
// active must have the same routers as full and an edge set that is a
// subset of full's. Distances, up*/down* numbering and Productive flags
// are all computed over active — failed links simply do not appear in
// any candidate set, including the AllOutputs deroute sets. XY is not
// built (it is illegal on faulted meshes anyway): Graph() returns
// active.
func NewTableRemapped(active, full *topology.Graph, root int) (*Table, error) {
	if active.N() != full.N() {
		return nil, fmt.Errorf("routing: active subgraph has %d routers, full graph %d", active.N(), full.N())
	}
	// One map lookup per active link, not per candidate built.
	arena := make([]int, active.NumLinks())
	out := make([][]int, active.N())
	for r := range out {
		ids := active.OutLinks(r)
		out[r], arena = arena[:len(ids):len(ids)], arena[len(ids):]
		for i, nb := range active.Neighbors(r) {
			id, ok := full.LinkID(r, nb)
			if !ok {
				return nil, fmt.Errorf("routing: active link %v is not part of the full graph", active.Link(ids[i]))
			}
			out[r][i] = id
		}
	}
	return buildTable(active, nil, root, out)
}

// Dist returns the BFS hop distance from r to dst.
func (t *Table) Dist(r, dst int) int { return t.dist[r][dst] }

// Graph returns the topology the table was built for.
func (t *Table) Graph() *topology.Graph { return t.g }

// buildUpDown assigns the up*/down* ordering and distance tables.
func (t *Table) buildUpDown() {
	g := t.g
	// BFS levels from the root; "up" goes toward the root: a link u→v is
	// up iff (level[v], v) < (level[u], u) lexicographically, so every
	// link has exactly one direction.
	level := g.BFSDist(t.udRoot)
	order := make([]int, g.N())
	// Dense rank: routers sorted by (level, id).
	byRank := make([]int, g.N())
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(a, b int) bool {
		if level[byRank[a]] != level[byRank[b]] {
			return level[byRank[a]] < level[byRank[b]]
		}
		return byRank[a] < byRank[b]
	})
	for rank, r := range byRank {
		order[r] = rank
	}

	// distUD[dst*2N + router*2+phase]: minimum legal hops from
	// (router,phase) to dst. Computed per destination by BFS over the
	// reversed phase-product graph: state (v, pv) is stepped to by
	// (u,0) --up--> (v,0); (u,0) --down--> (v,1); (u,1) --down--> (v,1).
	n2 := g.N() * 2
	distUD := make([]int32, g.N()*n2)
	for i := range distUD {
		distUD[i] = -1
	}
	queue := make([]int32, n2) // every state enters at most once
	for dst := 0; dst < g.N(); dst++ {
		d := distUD[dst*n2 : (dst+1)*n2]
		d[dst*2+0], d[dst*2+1] = 0, 0
		queue[0], queue[1] = int32(dst*2+0), int32(dst*2+1)
		head, tail := 0, 2
		visit := func(p int, from int32) {
			if d[p] < 0 {
				d[p] = d[from] + 1
				queue[tail] = int32(p)
				tail++
			}
		}
		for head < tail {
			s := queue[head]
			head++
			v, pv := int(s/2), s%2
			for _, u := range g.Neighbors(v) {
				up := order[v] < order[u]
				switch {
				case pv == 0 && up:
					visit(u*2+0, s)
				case pv == 1 && !up: // u→v is a down link
					visit(u*2+0, s)
					visit(u*2+1, s)
				}
			}
		}
		// Up to the root and down its spanning tree is always legal on the
		// connected graph buildTable insists on.
		for r := 0; r < g.N(); r++ {
			if d[r*2+0] < 0 {
				panic(fmt.Sprintf("routing: up*/down* cannot reach %d from %d on a connected graph", dst, r))
			}
		}
	}
	t.udOrder, t.distUD = order, distUD
}

// IsUp reports whether the link from→to travels "up" (toward the
// spanning-tree root) under the table's up*/down* ordering.
func (t *Table) IsUp(from, to int) bool {
	t.need(partNumbering)
	return t.isUp(from, to)
}

func (t *Table) isUp(from, to int) bool { return t.udOrder[to] < t.udOrder[from] }

// UpDownDist returns the minimum number of legal up*/down* hops from r
// (in the given phase) to dst, or -1 if unreachable in that phase.
func (t *Table) UpDownDist(r int, downPhase bool, dst int) int {
	t.need(partNumbering)
	return t.upDownDist(r, downPhase, dst)
}

func (t *Table) upDownDist(r int, downPhase bool, dst int) int {
	ph := 0
	if downPhase {
		ph = 1
	}
	return int(t.distUD[(dst*t.g.N()+r)*2+ph])
}

// build builds part p of t, and the parts it reads, under the table's
// lock, then publishes it. It re-checks p's flag first: another reader
// may have built it while this one waited for the lock.
//
//drain:coldpath allocates once per table and part, at the part's first read: a run's first Step after New or Reconfigure, or the first stall that needs the deroute sets
func (t *Table) build(p part) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buildLocked(p)
}

// buildLocked is build with t.mu held. A candidate part is generated
// through its per-pair algorithm into a scratch buffer sized for the
// largest kind (AllOutputs: every out-link of every router, for every
// other destination) and frozen into an arena of exactly its size, so
// later queries are allocation-free lookups and no arena holds spare
// capacity.
func (t *Table) buildLocked(p part) {
	if t.ready[p].Load() {
		return
	}
	var gen func(buf []Candidate, at, dst int) []Candidate
	switch p {
	case partNumbering:
		t.buildUpDown()
	case partAdaptive:
		gen = t.appendAdaptive
	case partXY:
		gen = t.appendXY
	case partUp, partDown:
		t.buildLocked(partNumbering)
		downPhase := p == partDown
		gen = func(buf []Candidate, at, dst int) []Candidate {
			return t.appendUpDown(buf, at, dst, downPhase)
		}
	case partAllOut:
		gen = t.appendAllOutputs
	}
	if gen != nil {
		n := t.g.N()
		off := make([]uint32, n*n+1)
		buf := make([]Candidate, 0, (n-1)*t.g.NumLinks())
		for at := 0; at < n; at++ {
			for dst := 0; dst < n; dst++ {
				buf = gen(buf, at, dst)
				off[at*n+dst+1] = uint32(len(buf))
			}
		}
		arena := buf
		if len(buf) < cap(buf) { // only AllOutputs fills it exactly
			arena = slices.Clone(buf)
		}
		t.sets[p] = candSet{off: off, arena: arena}
	}
	t.ready[p].Store(true)
}

// AllOutputs returns every outgoing link of router `at` as a candidate
// (including U-turns — the paper's assumption 3 permits every turn),
// with Productive computed against the BFS distance. This is the
// "fully adaptive" candidate set: an unrestricted-routing packet that
// has stalled may deroute over any output (misrouting is legal; DRAIN's
// full drains guard against livelock).
//
// The returned slice is shared and read-only: it aliases the table's
// precomputed state and must not be modified or appended to.
func (t *Table) AllOutputs(at, dst int) []Candidate {
	t.need(partAllOut)
	return t.sets[partAllOut].at(at*t.g.N() + dst)
}

// Candidates returns the legal next-hop candidates for a packet at router
// `at` heading to dst under algorithm k. downPhase is the packet's
// current up*/down* phase; for AdaptiveMinimal and XY it is ignored and
// the returned candidates carry DownPhase=false (the phase is meaningless
// outside up*/down* and is never consumed for such packets). At the
// destination router it returns no candidates — the caller ejects
// instead.
//
// The returned slice is shared and read-only: it aliases the table's
// precomputed state and must not be modified or appended to.
func (t *Table) Candidates(k Kind, at, dst int, downPhase bool) []Candidate {
	var p part
	switch k {
	case AdaptiveMinimal:
		p = partAdaptive
	case XY:
		p = partXY
	case UpDown:
		p = partUp
		if downPhase {
			p = partDown
		}
	default:
		return nil
	}
	t.need(p)
	return t.sets[p].at(at*t.g.N() + dst)
}

// appendAllOutputs generates the AllOutputs set for one (at, dst) pair.
func (t *Table) appendAllOutputs(buf []Candidate, at, dst int) []Candidate {
	if at == dst {
		return buf
	}
	cur := t.dist[at][dst]
	for i, nb := range t.g.Neighbors(at) {
		buf = append(buf, newCandidate(t.out[at][i], false, t.dist[nb][dst] < cur))
	}
	return buf
}

// appendAdaptive generates the minimal fully adaptive set for one pair.
func (t *Table) appendAdaptive(buf []Candidate, at, dst int) []Candidate {
	if at == dst {
		return buf
	}
	cur := t.dist[at][dst]
	for i, nb := range t.g.Neighbors(at) {
		if t.dist[nb][dst] < cur {
			buf = append(buf, newCandidate(t.out[at][i], false, true))
		}
	}
	return buf
}

// appendXY generates the dimension-order hop for one pair.
func (t *Table) appendXY(buf []Candidate, at, dst int) []Candidate {
	if at == dst || t.mesh == nil {
		return buf
	}
	m := t.mesh
	x, y := m.XY(at)
	dx, dy := m.XY(dst)
	var next int
	switch {
	case x < dx:
		next = m.RouterAt(x+1, y)
	case x > dx:
		next = m.RouterAt(x-1, y)
	case y < dy:
		next = m.RouterAt(x, y+1)
	default:
		next = m.RouterAt(x, y-1)
	}
	for i, nb := range t.g.Neighbors(at) {
		if nb == next {
			buf = append(buf, newCandidate(t.out[at][i], false, true))
		}
	}
	return buf
}

// appendUpDown generates the legal up*/down* hops for one pair and phase.
func (t *Table) appendUpDown(buf []Candidate, at, dst int, downPhase bool) []Candidate {
	if at == dst {
		return buf
	}
	cur := t.upDownDist(at, downPhase, dst)
	if cur < 0 {
		return buf
	}
	for i, nb := range t.g.Neighbors(at) {
		up := t.isUp(at, nb)
		if downPhase && up {
			continue // an up turn after going down is illegal
		}
		nextPhase := downPhase || !up
		if t.upDownDist(nb, nextPhase, dst) == cur-1 {
			buf = append(buf, newCandidate(t.out[at][i], nextPhase, t.dist[nb][dst] < t.dist[at][dst]))
		}
	}
	return buf
}
