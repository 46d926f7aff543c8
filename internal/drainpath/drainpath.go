// Package drainpath implements DRAIN's offline algorithm (paper §III-B):
// finding the drain path, a single cycle through a topology's
// link-dependency graph that covers every unidirectional link.
//
// The dependency graph G has one vertex per unidirectional link and one
// directed edge per turn (link a→b followed by link b→c, including the
// U-turn b→a). An elementary cycle in G that visits all of L — the drain
// path — is exactly a directed Eulerian circuit of the topology, because
// each vertex of G (= each link) is used at most once and all are used.
//
// Under the paper's assumptions (connected topology, bidirectional links,
// all turns permitted) such a circuit always exists: every router's
// in-degree equals its out-degree in the directed link multigraph.
//
// Two constructions are provided:
//
//   - FindCoveringCycle: the paper's formulation — a recursive
//     elementary-cycle search over G in the style of Hawick & James,
//     augmented to terminate as soon as one cycle covering all of L is
//     found, with connectivity pruning so it completes quickly.
//   - FindEulerian: Hierholzer's algorithm, the fast deterministic path
//     used by default at "boot" and after every fault reconfiguration.
//
// Both produce a Path; Validate cross-checks any Path against the
// topology.
package drainpath

import (
	"errors"
	"fmt"
	"strings"

	"drain/internal/topology"
)

// Path is a drain path: a cyclic sequence of unidirectional links covering
// every link of the topology exactly once, with consecutive links joined
// by a legal turn (the head router of one link is the tail of the next).
type Path struct {
	// Seq is the link sequence; Seq[i+1] starts where Seq[i] ends, and
	// Seq[0] starts where Seq[len-1] ends.
	Seq []topology.Link
	// next[linkID] is the ID of the link following linkID in the cycle.
	next []int
	// pos[linkID] is the position of linkID within Seq.
	pos []int
}

// Len returns the number of links in the cycle.
func (p *Path) Len() int { return len(p.Seq) }

// Next returns the link that follows link id in the drain path. This is
// the content of the per-router turn-tables: a packet drained out of the
// escape VC fed by link id is forced onto link Next(id).
func (p *Path) Next(id int) topology.Link { return p.Seq[p.posOf(p.next[id])] }

// NextID returns the ID of the link following link id.
func (p *Path) NextID(id int) int { return p.next[id] }

// posOf returns the position of link id within Seq.
func (p *Path) posOf(id int) int { return p.pos[id] }

// Pos returns the position of link id within the cycle (0-based).
func (p *Path) Pos(id int) int { return p.pos[id] }

// finish populates the next and pos tables from Seq.
func (p *Path) finish(numLinks int) error {
	if len(p.Seq) != numLinks {
		return fmt.Errorf("drainpath: cycle covers %d of %d links", len(p.Seq), numLinks)
	}
	p.next = make([]int, numLinks)
	p.pos = make([]int, numLinks)
	for i := range p.next {
		p.next[i] = -1
		p.pos[i] = -1
	}
	for i, l := range p.Seq {
		if p.pos[l.ID] != -1 {
			return fmt.Errorf("drainpath: link %v appears twice in cycle", l)
		}
		p.pos[l.ID] = i
		succ := p.Seq[(i+1)%len(p.Seq)]
		p.next[l.ID] = succ.ID
	}
	return nil
}

// String renders the path as "0->1 1->2 ... ->0".
func (p *Path) String() string {
	var b strings.Builder
	for i, l := range p.Seq {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.String())
	}
	return b.String()
}

// TurnTable returns, for every router, a map from input link ID to output
// link ID — the hardware turn-table loaded into each router (paper
// §III-C3). Router r's table has one entry per link whose head is r.
func (p *Path) TurnTable(g *topology.Graph) [][2][]int {
	tables := make([][2][]int, g.N())
	for r := range tables {
		tables[r] = [2][]int{nil, nil}
	}
	for _, l := range p.Seq {
		r := l.To
		tables[r][0] = append(tables[r][0], l.ID)
		tables[r][1] = append(tables[r][1], p.next[l.ID])
	}
	return tables
}

// Validate checks that p is a legal drain path for g: it covers every
// unidirectional link exactly once, consecutive links share a router, and
// the sequence closes into a single cycle.
func Validate(g *topology.Graph, p *Path) error {
	if p == nil || len(p.Seq) == 0 {
		return errors.New("drainpath: empty path")
	}
	if len(p.Seq) != g.NumLinks() {
		return fmt.Errorf("drainpath: path covers %d links, topology has %d", len(p.Seq), g.NumLinks())
	}
	seen := make([]bool, g.NumLinks())
	for i, l := range p.Seq {
		id, ok := g.LinkID(l.From, l.To)
		if !ok || id != l.ID {
			return fmt.Errorf("drainpath: link %v at position %d is not a topology link", l, i)
		}
		if seen[id] {
			return fmt.Errorf("drainpath: link %v repeated", l)
		}
		seen[id] = true
		succ := p.Seq[(i+1)%len(p.Seq)]
		if l.To != succ.From {
			return fmt.Errorf("drainpath: illegal turn at position %d: %v then %v", i, l, succ)
		}
	}
	for id, s := range seen {
		if !s {
			return fmt.Errorf("drainpath: link %v not covered", g.Link(id))
		}
	}
	// Check the next table is consistent with Seq.
	for i, l := range p.Seq {
		if p.next[l.ID] != p.Seq[(i+1)%len(p.Seq)].ID {
			return fmt.Errorf("drainpath: next table inconsistent at link %v", l)
		}
	}
	return nil
}

// FindEulerian constructs a drain path with Hierholzer's algorithm over
// the directed link graph. It is deterministic, runs in O(L), and always
// succeeds for connected topologies with bidirectional links.
func FindEulerian(g *topology.Graph) (*Path, error) {
	if g.NumLinks() == 0 {
		return nil, errors.New("drainpath: topology has no links")
	}
	if !g.Connected() {
		return nil, errors.New("drainpath: topology is disconnected")
	}
	// outEdges[r] = IDs of links leaving router r.
	outEdges := make([][]int, g.N())
	for _, l := range g.Links() {
		outEdges[l.From] = append(outEdges[l.From], l.ID)
	}
	usedIdx := make([]int, g.N()) // next unused out-edge per router

	// Hierholzer: walk until stuck (back at a vertex with no unused
	// out-edges — necessarily the start), then splice sub-tours found at
	// vertices on the current tour that still have unused out-edges.
	start := g.Link(0).From
	var circuit []int
	stack := []int{start}
	var trail []int // link IDs of the in-progress walk, parallel to stack[1:]
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if usedIdx[v] < len(outEdges[v]) {
			id := outEdges[v][usedIdx[v]]
			usedIdx[v]++
			stack = append(stack, g.Link(id).To)
			trail = append(trail, id)
		} else {
			stack = stack[:len(stack)-1]
			if len(trail) > 0 {
				circuit = append(circuit, trail[len(trail)-1])
				trail = trail[:len(trail)-1]
			}
		}
	}
	// circuit holds link IDs in reverse traversal order.
	p := &Path{Seq: make([]topology.Link, 0, len(circuit))}
	for i := len(circuit) - 1; i >= 0; i-- {
		p.Seq = append(p.Seq, g.Link(circuit[i]))
	}
	if err := p.finish(g.NumLinks()); err != nil {
		return nil, err
	}
	if err := Validate(g, p); err != nil {
		return nil, err
	}
	return p, nil
}

// DefaultSearchBudget bounds the number of recursive extensions
// FindCoveringCycle may attempt before giving up.
const DefaultSearchBudget = 20_000_000

// ErrSearchBudget is returned by FindCoveringCycle when the budget runs
// out before a covering cycle is found. It says nothing about whether
// one exists: sparse topologies can defeat the search's pruning
// (FindEulerian constructs a path on every connected topology).
var ErrSearchBudget = errors.New("drainpath: search budget exhausted before finding a covering cycle")

// FindCoveringCycle is the paper-faithful formulation: a recursive search
// for a single elementary cycle in the link-dependency graph that covers
// all links, in the style of Hawick & James's circuit enumeration but
// terminating early at the first covering cycle (paper §III-B). A
// feasibility prune (every unused link must remain reachable, and every
// router's remaining in/out degrees must stay balanced) keeps the search
// near-linear on practical topologies. budget caps the number of extension
// steps; pass 0 for DefaultSearchBudget. A search that runs out returns
// ErrSearchBudget.
func FindCoveringCycle(g *topology.Graph, budget int) (*Path, error) {
	if g.NumLinks() == 0 {
		return nil, errors.New("drainpath: topology has no links")
	}
	if !g.Connected() {
		return nil, errors.New("drainpath: topology is disconnected")
	}
	if budget <= 0 {
		budget = DefaultSearchBudget
	}
	s := &search{
		g:        g,
		used:     make([]bool, g.NumLinks()),
		outUsed:  make([]int, g.N()),
		inUsed:   make([]int, g.N()),
		outDeg:   make([]int, g.N()),
		budget:   budget,
		outEdges: make([][]int, g.N()),
	}
	for _, l := range g.Links() {
		s.outEdges[l.From] = append(s.outEdges[l.From], l.ID)
		s.outDeg[l.From]++
	}
	first := g.Link(0)
	s.used[first.ID] = true
	s.outUsed[first.From]++
	s.inUsed[first.To]++
	s.seq = append(s.seq, first)
	if !s.extend(first.To, first.From) {
		if s.budget <= 0 {
			return nil, ErrSearchBudget
		}
		return nil, errors.New("drainpath: no covering cycle exists (assumption violated?)")
	}
	p := &Path{Seq: s.seq}
	if err := p.finish(g.NumLinks()); err != nil {
		return nil, err
	}
	if err := Validate(g, p); err != nil {
		return nil, err
	}
	return p, nil
}

type search struct {
	g        *topology.Graph
	seq      []topology.Link
	used     []bool
	outUsed  []int // used out-links per router
	inUsed   []int // used in-links per router
	outDeg   []int
	outEdges [][]int
	budget   int
}

// extend tries to grow the elementary cycle from router at back to start,
// covering all links. Returns true when s.seq is a full covering cycle.
func (s *search) extend(at, start int) bool {
	if len(s.seq) == s.g.NumLinks() {
		return at == start // cycle closes only if the last head is the start
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	// Order candidate out-links to prefer the "most constrained" next
	// router (fewest remaining out-links), a cheap forced-move heuristic.
	cands := s.candidates(at)
	for _, id := range cands {
		l := s.g.Link(id)
		s.used[id] = true
		s.outUsed[l.From]++
		s.inUsed[l.To]++
		s.seq = append(s.seq, l)
		if s.feasible(start) && s.extend(l.To, start) {
			return true
		}
		s.seq = s.seq[:len(s.seq)-1]
		s.inUsed[l.To]--
		s.outUsed[l.From]--
		s.used[id] = false
	}
	return false
}

// candidates returns unused out-links of router at, most-constrained
// successor first.
func (s *search) candidates(at int) []int {
	var out []int
	for _, id := range s.outEdges[at] {
		if !s.used[id] {
			out = append(out, id)
		}
	}
	// Insertion sort by remaining out-degree of the successor router;
	// candidate lists are tiny (≤ router degree).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a := s.g.Link(out[j])
			b := s.g.Link(out[j-1])
			if s.remainingOut(a.To) < s.remainingOut(b.To) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

func (s *search) remainingOut(r int) int { return s.outDeg[r] - s.outUsed[r] }

// feasible prunes partial cycles that can no longer be completed: every
// router must retain balanced unused in/out capacity relative to the walk
// endpoints, mirroring the Eulerian-circuit existence condition.
func (s *search) feasible(start int) bool {
	at := s.seq[len(s.seq)-1].To
	if len(s.seq) == s.g.NumLinks() {
		return at == start
	}
	// If the current router has no unused out-links and the walk is not
	// complete, this branch is dead.
	if s.remainingOut(at) == 0 {
		return false
	}
	return true
}
