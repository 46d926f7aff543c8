// Package topology models arbitrary irregular network topologies as
// undirected graphs of routers joined by bidirectional links, along with
// the derived structures the rest of the simulator needs: unidirectional
// link enumeration, BFS distance tables, spanning trees, diameters and
// fault injection that preserves connectivity.
//
// The DRAIN paper (HPCA 2020, §III-A) assumes topologies that are
// connected, use bidirectional links, and permit all turns including
// U-turns. Graph enforces the first two structurally; turn legality is a
// routing-layer concern.
package topology

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
)

// Link is one unidirectional channel of a bidirectional link.
// A bidirectional link between routers a and b contributes two Links:
// a→b and b→a. Links are the vertices of the drain-path dependency graph
// and each owns exactly one escape-VC buffer at the input port of To.
type Link struct {
	ID   int // dense index in Graph.Links()
	From int // tail router
	To   int // head router
}

// String renders the link as "from->to".
func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// Edge is a bidirectional link between two routers, stored with A < B.
type Edge struct{ A, B int }

// Graph is an undirected multigraph-free topology of N routers.
// The zero value is not usable; construct with New, NewMesh, etc.
type Graph struct {
	n     int
	adj   [][]int      // adjacency lists, each sorted ascending
	edges []Edge       // canonical bidirectional edges, A < B, sorted
	links []Link       // unidirectional links, dense IDs
	lidx  map[Edge]int // (from,to) -> link ID, using Edge as ordered pair
	out   [][]int      // out[r][i] is the ID of link r -> adj[r][i]
}

// New builds a graph over n routers with the given bidirectional edges.
// Duplicate edges and self-loops are rejected.
func New(n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: router count %d must be positive", n)
	}
	g := &Graph{n: n}
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if e.A == e.B {
			return nil, fmt.Errorf("topology: self-loop at router %d", e.A)
		}
		if e.A > e.B {
			e.A, e.B = e.B, e.A
		}
		if e.A < 0 || e.B >= n {
			return nil, fmt.Errorf("topology: edge %d-%d out of range [0,%d)", e.A, e.B, n)
		}
		if seen[e] {
			return nil, fmt.Errorf("topology: duplicate edge %d-%d", e.A, e.B)
		}
		seen[e] = true
		g.edges = append(g.edges, e)
	}
	slices.SortFunc(g.edges, compareEdges)
	g.rebuild()
	return g, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// rebuild derives adjacency lists and unidirectional links from g.edges.
func (g *Graph) rebuild() {
	g.adj = make([][]int, g.n)
	for _, e := range g.edges {
		g.adj[e.A] = append(g.adj[e.A], e.B)
		g.adj[e.B] = append(g.adj[e.B], e.A)
	}
	for _, l := range g.adj {
		sort.Ints(l)
	}
	g.links = g.links[:0]
	g.lidx = make(map[Edge]int, 2*len(g.edges))
	// Unidirectional links ordered: both directions of each edge adjacent,
	// so link ID parity pairs opposing channels (ID^1 is the reverse link).
	for _, e := range g.edges {
		g.addLink(e.A, e.B)
		g.addLink(e.B, e.A)
	}
	// Out-link IDs per router, parallel to adj: one arena, sliced by
	// degree. Edges are sorted by (A, B), so walking the links in ID order
	// meets each router's neighbors in ascending order (the B->A links of
	// edges with A < r first, then the A->B links of edges with A == r),
	// which is adj[r]'s order — no search needed.
	arena := make([]int, len(g.links))
	g.out = make([][]int, g.n)
	for r, nbs := range g.adj {
		g.out[r], arena = arena[:0:len(nbs)], arena[len(nbs):]
	}
	for _, l := range g.links {
		g.out[l.From] = append(g.out[l.From], l.ID)
	}
}

func (g *Graph) addLink(from, to int) {
	id := len(g.links)
	g.links = append(g.links, Link{ID: id, From: from, To: to})
	g.lidx[Edge{A: from, B: to}] = id
}

// N returns the number of routers.
func (g *Graph) N() int { return g.n }

// Edges returns the bidirectional edges in canonical order.
// The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Links returns all unidirectional links; index i has ID i.
// The returned slice must not be modified.
func (g *Graph) Links() []Link { return g.links }

// Link returns the unidirectional link with the given ID.
func (g *Graph) Link(id int) Link { return g.links[id] }

// NumLinks returns the number of unidirectional links (2 × edges).
func (g *Graph) NumLinks() int { return len(g.links) }

// Neighbors returns the sorted neighbor list of router r.
// The returned slice must not be modified.
func (g *Graph) Neighbors(r int) []int { return g.adj[r] }

// OutLinks returns the IDs of the links leaving router r, parallel to
// Neighbors(r): OutLinks(r)[i] is the link r -> Neighbors(r)[i]. The IDs
// ascend. The returned slice must not be modified.
func (g *Graph) OutLinks(r int) []int { return g.out[r] }

// Degree returns the number of neighbors of router r.
func (g *Graph) Degree(r int) int { return len(g.adj[r]) }

// LinkID returns the ID of the unidirectional link from→to and whether it
// exists.
func (g *Graph) LinkID(from, to int) (int, bool) {
	id, ok := g.lidx[Edge{A: from, B: to}]
	return id, ok
}

// Reverse returns the link opposing l (the other channel of the same
// bidirectional link).
func (g *Graph) Reverse(l Link) Link { return g.links[l.ID^1] }

// HasEdge reports whether a bidirectional link joins a and b.
func (g *Graph) HasEdge(a, b int) bool {
	_, ok := g.lidx[Edge{A: a, B: b}]
	return ok
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.edges))
	copy(edges, g.edges)
	ng := &Graph{n: g.n, edges: edges}
	ng.rebuild()
	return ng
}

// WithoutEdge returns a copy of g with the bidirectional edge a-b removed.
// Removing an edge drops both of its unidirectional links (paper §III-A
// assumption 2: a faulty unidirectional link disables both directions).
func (g *Graph) WithoutEdge(a, b int) (*Graph, error) {
	if a > b {
		a, b = b, a
	}
	if !g.HasEdge(a, b) {
		return nil, fmt.Errorf("topology: no edge %d-%d to remove", a, b)
	}
	edges := make([]Edge, 0, len(g.edges)-1)
	for _, e := range g.edges {
		if e.A == a && e.B == b {
			continue
		}
		edges = append(edges, e)
	}
	return New(g.n, edges)
}

// WithEdge returns a copy of g with the bidirectional edge a-b restored.
// Because New canonicalizes edge order and rebuild derives every other
// structure from the sorted edge list, removing an edge with WithoutEdge
// and restoring it with WithEdge reproduces the original graph
// byte-for-byte (adjacency, edge order and link IDs included).
func (g *Graph) WithEdge(a, b int) (*Graph, error) {
	if a > b {
		a, b = b, a
	}
	if g.HasEdge(a, b) {
		return nil, fmt.Errorf("topology: edge %d-%d already present", a, b)
	}
	edges := make([]Edge, 0, len(g.edges)+1)
	edges = append(edges, g.edges...)
	edges = append(edges, Edge{A: a, B: b})
	return New(g.n, edges)
}

// Connected reports whether every router can reach every other router.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.adj[r] {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == g.n
}

// BFSDist returns the hop distance from src to every router (-1 if
// unreachable).
func (g *Graph) BFSDist(src int) []int {
	dist := make([]int, g.n)
	g.bfsInto(dist, make([]int, g.n), src)
	return dist
}

// bfsInto fills dist with BFSDist(src); dist and the scratch queue both
// have length N.
func (g *Graph) bfsInto(dist, queue []int, src int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	for head, tail := 0, 1; head < tail; head++ {
		r := queue[head]
		for _, nb := range g.adj[r] {
			if dist[nb] < 0 {
				dist[nb] = dist[r] + 1
				queue[tail] = nb
				tail++
			}
		}
	}
}

// AllPairsDist returns dist[src][dst] hop distances for all router pairs
// (rows of one arena).
func (g *Graph) AllPairsDist() [][]int {
	all := make([][]int, g.n)
	arena := make([]int, g.n*g.n)
	queue := make([]int, g.n)
	for r := range all {
		all[r] = arena[r*g.n : (r+1)*g.n : (r+1)*g.n]
		g.bfsInto(all[r], queue, r)
	}
	return all
}

// Diameter returns the largest hop distance between any connected pair.
func (g *Graph) Diameter() int {
	d := 0
	for r := 0; r < g.n; r++ {
		for _, v := range g.BFSDist(r) {
			if v > d {
				d = v
			}
		}
	}
	return d
}

// RemoveRandomLinks returns a copy of g with k random bidirectional edges
// removed, guaranteeing the result stays connected (the paper's fault
// model: "links are randomly removed ... all nodes remain connected").
// It fails if no connectivity-preserving choice exists for some step.
//
// Each step draws one of the edges that are not bridges of what is left,
// in canonical edge order — the same draws k WithoutEdge calls on the
// shrinking graph would take — but only the edge list and the adjacency
// lists (all the bridge search reads) are kept current between steps;
// the links and their indexes are derived once, from the survivors.
func RemoveRandomLinks(g *Graph, k int, rng *rand.Rand) (*Graph, error) {
	cur := &Graph{n: g.n, edges: slices.Clone(g.edges), adj: make([][]int, g.n)}
	for r, nbs := range g.adj {
		cur.adj[r] = slices.Clone(nbs)
	}
	candidates := make([]Edge, 0, len(cur.edges))
	for i := 0; i < k; i++ {
		candidates = cur.appendRemovable(candidates[:0])
		if len(candidates) == 0 {
			return nil, fmt.Errorf("topology: cannot remove link %d of %d without disconnecting the network", i+1, k)
		}
		e := candidates[rng.IntN(len(candidates))]
		cur.edges = deleteOne(cur.edges, e)
		cur.adj[e.A] = deleteOne(cur.adj[e.A], e.B)
		cur.adj[e.B] = deleteOne(cur.adj[e.B], e.A)
	}
	return New(g.n, cur.edges)
}

// FaultPattern is the fault pattern a run with faults random link
// failures and fault seed seed simulates on: RemoveRandomLinks drawing
// from a PCG stream the seed alone fixes. With no faults it is g itself.
func FaultPattern(g *Graph, faults int, seed uint64) (*Graph, error) {
	if faults <= 0 {
		return g, nil
	}
	return RemoveRandomLinks(g, faults, rand.New(rand.NewPCG(seed, seed^0xb5297a4d)))
}

// deleteOne removes the one element of s equal to v, keeping the order.
func deleteOne[T comparable](s []T, v T) []T {
	i := slices.Index(s, v)
	return slices.Delete(s, i, i+1)
}

// RemovableEdges lists edges whose removal keeps the graph connected, in
// canonical edge order. Runtime fault schedules use it to pick failure
// candidates that never partition the network.
func RemovableEdges(g *Graph) []Edge { return g.appendRemovable(nil) }

// appendRemovable appends to out the edges that are not bridges, in
// canonical edge order. It reads only g.n, g.adj and g.edges.
func (g *Graph) appendRemovable(out []Edge) []Edge {
	bridges := g.bridges()
	slices.SortFunc(bridges, compareEdges)
	for _, e := range g.edges {
		// Both lists ascend, so the next bridge is the only one e can be.
		if len(bridges) > 0 && bridges[0] == e {
			bridges = bridges[1:]
			continue
		}
		out = append(out, e)
	}
	return out
}

// compareEdges orders edges by (A, B): the canonical edge order.
func compareEdges(x, y Edge) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// bridges returns all bridge edges (edges whose removal disconnects the
// graph) via an iterative Tarjan lowlink computation.
func (g *Graph) bridges() []Edge {
	disc := make([]int, g.n)
	low := make([]int, g.n)
	for i := range disc {
		disc[i] = -1
	}
	var out []Edge
	timer := 0

	type frame struct {
		node, parent, idx int
	}
	for start := 0; start < g.n; start++ {
		if disc[start] >= 0 {
			continue
		}
		stack := []frame{{node: start, parent: -1}}
		disc[start], low[start] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(g.adj[f.node]) {
				nb := g.adj[f.node][f.idx]
				f.idx++
				if nb == f.parent {
					// Skip one traversal back over the tree edge. With no
					// duplicate edges this is exactly the parent edge.
					f.parent = -1 // consume: parallel edges are impossible
					continue
				}
				if disc[nb] < 0 {
					disc[nb], low[nb] = timer, timer
					timer++
					stack = append(stack, frame{node: nb, parent: f.node})
				} else if disc[nb] < low[f.node] {
					low[f.node] = disc[nb]
				}
				continue
			}
			// Post-visit: propagate lowlink to parent, detect bridge.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.node] < low[p.node] {
					low[p.node] = low[f.node]
				}
				if low[f.node] > disc[p.node] {
					a, b := p.node, f.node
					if a > b {
						a, b = b, a
					}
					out = append(out, Edge{A: a, B: b})
				}
			}
		}
	}
	return out
}
