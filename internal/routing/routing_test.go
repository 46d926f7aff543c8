package routing

import (
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"drain/internal/topology"
)

// fixedRand seeds quick.Check's input stream: its default is seeded from
// the clock, which makes a property test's verdict depend on when it ran.
func fixedRand() *mrand.Rand { return mrand.New(mrand.NewSource(1)) }

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, ^seed)) }

func newTable(t *testing.T, g *topology.Graph, m *topology.Mesh) *Table {
	t.Helper()
	tab, err := NewTable(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestXYRoutesExactlyOnePort(t *testing.T) {
	m := topology.MustMesh(4, 4)
	tab := newTable(t, m.Graph, m)
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			if src == dst {
				continue
			}
			// Walk the XY route; it must be minimal and terminate.
			at, hops := src, 0
			for at != dst {
				cands := tab.Candidates(XY, at, dst, false)
				if len(cands) != 1 {
					t.Fatalf("XY at %d→%d: %d candidates, want 1", at, dst, len(cands))
				}
				at = m.Link(cands[0].LinkID()).To
				if hops++; hops > m.N() {
					t.Fatalf("XY route %d→%d does not terminate", src, dst)
				}
			}
			if want := tab.Dist(src, dst); hops != want {
				t.Fatalf("XY route %d→%d took %d hops, want %d", src, dst, hops, want)
			}
		}
	}
}

func TestXYIsXFirst(t *testing.T) {
	m := topology.MustMesh(4, 4)
	tab := newTable(t, m.Graph, m)
	// From (0,0) to (2,2) the first hop must be +X.
	src, dst := m.RouterAt(0, 0), m.RouterAt(2, 2)
	cands := tab.Candidates(XY, src, dst, false)
	if len(cands) != 1 {
		t.Fatal("want one candidate")
	}
	if to := m.Link(cands[0].LinkID()).To; to != m.RouterAt(1, 0) {
		t.Errorf("first hop goes to %d, want +X neighbor %d", to, m.RouterAt(1, 0))
	}
}

func TestAdaptiveMinimalIsProductiveAndComplete(t *testing.T) {
	m := topology.MustMesh(4, 4)
	tab := newTable(t, m.Graph, m)
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			if src == dst {
				continue
			}
			cands := tab.Candidates(AdaptiveMinimal, src, dst, false)
			if len(cands) == 0 {
				t.Fatalf("no adaptive candidates %d→%d", src, dst)
			}
			sx, sy := m.XY(src)
			dx, dy := m.XY(dst)
			wantCount := 0
			if sx != dx {
				wantCount++
			}
			if sy != dy {
				wantCount++
			}
			if len(cands) != wantCount {
				t.Fatalf("%d→%d: %d candidates, want %d", src, dst, len(cands), wantCount)
			}
			for _, c := range cands {
				nb := m.Link(c.LinkID()).To
				if tab.Dist(nb, dst) != tab.Dist(src, dst)-1 {
					t.Fatalf("%d→%d: candidate via %d is not minimal", src, dst, nb)
				}
				if !c.Productive() {
					t.Fatalf("%d→%d: minimal candidate marked unproductive", src, dst)
				}
			}
		}
	}
}

func TestCandidatesAtDestinationEmpty(t *testing.T) {
	m := topology.MustMesh(3, 3)
	tab := newTable(t, m.Graph, m)
	for _, k := range []Kind{AdaptiveMinimal, XY, UpDown} {
		if got := tab.Candidates(k, 4, 4, false); len(got) != 0 {
			t.Errorf("%v at destination returned %d candidates", k, len(got))
		}
	}
}

// walkUpDown follows up*/down* candidates (first candidate each step) and
// verifies the no-up-after-down invariant along the way.
func walkUpDown(t *testing.T, tab *Table, g *topology.Graph, src, dst int) int {
	t.Helper()
	at, phase, hops := src, false, 0
	for at != dst {
		cands := tab.Candidates(UpDown, at, dst, phase)
		if len(cands) == 0 {
			t.Fatalf("up*/down* stuck at %d (phase %v) heading to %d", at, phase, dst)
		}
		c := cands[0]
		to := g.Link(c.LinkID()).To
		if phase && tab.IsUp(at, to) {
			t.Fatalf("up link %d→%d taken after down", at, to)
		}
		at, phase = to, c.DownPhase()
		if hops++; hops > 4*g.N() {
			t.Fatalf("up*/down* route %d→%d does not terminate", src, dst)
		}
	}
	return hops
}

func TestUpDownReachesAllPairs(t *testing.T) {
	m := topology.MustMesh(4, 4)
	tab := newTable(t, m.Graph, m)
	for src := 0; src < m.N(); src++ {
		for dst := 0; dst < m.N(); dst++ {
			if src == dst {
				continue
			}
			hops := walkUpDown(t, tab, m.Graph, src, dst)
			if want := tab.UpDownDist(src, false, dst); hops != want {
				t.Fatalf("%d→%d: walked %d hops, table says %d", src, dst, hops, want)
			}
			if hops < tab.Dist(src, dst) {
				t.Fatalf("%d→%d: up*/down* beat BFS distance", src, dst)
			}
		}
	}
}

func TestUpDownIsNonMinimalSomewhere(t *testing.T) {
	// The paper's Fig. 5 premise: up*/down* forces non-minimal routes on
	// faulty topologies. (On a fault-free mesh with a corner root the
	// levels equal Manhattan distance, so routes happen to stay minimal.)
	rng := testRNG(5)
	base := topology.MustMesh(8, 8).Graph
	stretched := 0
	for trial := 0; trial < 5; trial++ {
		g, err := topology.RemoveRandomLinks(base, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		tab := newTable(t, g, nil)
		for src := 0; src < g.N(); src++ {
			for dst := 0; dst < g.N(); dst++ {
				if src == dst {
					continue
				}
				if tab.UpDownDist(src, false, dst) > tab.Dist(src, dst) {
					stretched++
				}
			}
		}
	}
	if stretched == 0 {
		t.Error("up*/down* on faulty 8x8 meshes should stretch some routes")
	}
}

func TestUpDownOnFaultyTopologies(t *testing.T) {
	rng := testRNG(11)
	base := topology.MustMesh(8, 8).Graph
	for _, faults := range []int{1, 4, 8, 12} {
		g, err := topology.RemoveRandomLinks(base, faults, rng)
		if err != nil {
			t.Fatal(err)
		}
		tab := newTable(t, g, nil)
		for src := 0; src < g.N(); src += 7 {
			for dst := 0; dst < g.N(); dst += 5 {
				if src != dst {
					walkUpDown(t, tab, g, src, dst)
				}
			}
		}
	}
}

func TestNewTableRejectsDisconnected(t *testing.T) {
	g := topology.MustNew(4, []topology.Edge{{A: 0, B: 1}, {A: 2, B: 3}})
	if _, err := NewTable(g, nil); err == nil {
		t.Error("expected error for disconnected topology")
	}
}

func TestEveryLinkHasExactlyOneDirection(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	tab := newTable(t, g, nil)
	for _, e := range g.Edges() {
		upAB := tab.IsUp(e.A, e.B)
		upBA := tab.IsUp(e.B, e.A)
		if upAB == upBA {
			t.Fatalf("edge %v: both directions classified the same", e)
		}
	}
}

// Property: adaptive minimal walks on random connected graphs always
// terminate in exactly Dist(src,dst) hops regardless of tie-breaking.
func TestAdaptiveWalkProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := testRNG(seed)
		g, err := topology.NewRandomConnected(n, 6, rng)
		if err != nil {
			return false
		}
		tab, err := NewTable(g, nil)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			src, dst := rng.IntN(n), rng.IntN(n)
			at, hops := src, 0
			for at != dst {
				cands := tab.Candidates(AdaptiveMinimal, at, dst, false)
				if len(cands) == 0 {
					return false
				}
				at = g.Link(cands[rng.IntN(len(cands))].LinkID()).To
				hops++
			}
			if hops != tab.Dist(src, dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// Property: up*/down* walks on random graphs terminate and never violate
// the phase rule.
func TestUpDownWalkProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		rng := testRNG(seed)
		g, err := topology.NewRandomConnected(n, 4, rng)
		if err != nil {
			return false
		}
		tab, err := NewTable(g, nil)
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			src, dst := rng.IntN(n), rng.IntN(n)
			at, phase, hops := src, false, 0
			for at != dst {
				cands := tab.Candidates(UpDown, at, dst, phase)
				if len(cands) == 0 {
					return false
				}
				c := cands[rng.IntN(len(cands))]
				to := g.Link(c.LinkID()).To
				if phase && tab.IsUp(at, to) {
					return false
				}
				at, phase = to, c.DownPhase()
				if hops++; hops > 4*n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// TestRemappedTableIsActiveTableInFullIDs pins NewTableRemapped to its
// definition: cell for cell the table NewTable builds over the active
// subgraph, with every LinkID translated into the full graph's ID space.
func TestRemappedTableIsActiveTableInFullIDs(t *testing.T) {
	full := topology.MustMesh(5, 4).Graph
	active, err := topology.RemoveRandomLinks(full, 4, testRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	plain := newTable(t, active, nil)
	remapped, err := NewTableRemapped(active, full, 0)
	if err != nil {
		t.Fatal(err)
	}
	if remapped.Graph() != active {
		t.Error("remapped table must report the active subgraph")
	}
	cells := 0
	for at := 0; at < full.N(); at++ {
		for dst := 0; dst < full.N(); dst++ {
			for _, pair := range [][2][]Candidate{
				{plain.Candidates(AdaptiveMinimal, at, dst, false), remapped.Candidates(AdaptiveMinimal, at, dst, false)},
				{plain.Candidates(UpDown, at, dst, false), remapped.Candidates(UpDown, at, dst, false)},
				{plain.Candidates(UpDown, at, dst, true), remapped.Candidates(UpDown, at, dst, true)},
				{plain.AllOutputs(at, dst), remapped.AllOutputs(at, dst)},
			} {
				want, got := pair[0], pair[1]
				if len(got) != len(want) {
					t.Fatalf("(%d,%d): remapped set has %d candidates, active table %d", at, dst, len(got), len(want))
				}
				for i, c := range want {
					l := active.Link(c.LinkID())
					id, _ := full.LinkID(l.From, l.To)
					c = newCandidate(id, c.DownPhase(), c.Productive())
					if got[i] != c {
						t.Fatalf("(%d,%d) candidate %d = %+v, want %+v", at, dst, i, got[i], c)
					}
					cells++
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("compared no candidates")
	}
	if _, err := NewTableRemapped(topology.MustMesh(2, 2).Graph, full, 0); err == nil {
		t.Error("router-count mismatch should fail")
	}
	if _, err := NewTableRemapped(full, active, 0); err == nil {
		t.Error("an active graph with links outside the full graph should fail")
	}
}

// TestCandidateListsAscendByLinkID pins the order noc's uncontested exit
// merges by: every list a table hands out for arbitration — Candidates of
// each kind and phase, AllOutputs — ascends strictly by LinkID, which is
// Graph.OutLinks order. It holds for a table over a graph's own IDs and
// for one remapped into the full graph's IDs after any removable edge
// has failed.
func TestCandidateListsAscendByLinkID(t *testing.T) {
	check := requireListsAscend
	m := topology.MustMesh(4, 4)
	irregular, err := topology.NewRandomConnected(12, 6, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for name, full := range map[string]*topology.Graph{"mesh": m.Graph, "irregular": irregular} {
		mesh := m
		if full != m.Graph {
			mesh = nil
		}
		check(t, name, newTable(t, full, mesh), full.N())
		without := func(from *topology.Graph, e topology.Edge) *topology.Graph {
			active, err := from.WithoutEdge(e.A, e.B)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := NewTableRemapped(active, full, 0)
			if err != nil {
				t.Fatal(err)
			}
			check(t, fmt.Sprintf("%s, %d links left, without %d-%d", name, active.NumLinks(), e.A, e.B), tab, full.N())
			return active
		}
		// Every single failure, then failures piling up until only a
		// spanning tree is left.
		for _, e := range topology.RemovableEdges(full) {
			without(full, e)
		}
		rng := testRNG(7)
		for cur := full; ; {
			edges := topology.RemovableEdges(cur)
			if len(edges) == 0 {
				break
			}
			cur = without(cur, edges[rng.IntN(len(edges))])
		}
	}
}

// requireListsAscend is TestCandidateListsAscendByLinkID's check of one
// table.
func requireListsAscend(t *testing.T, what string, tab *Table, routers int) {
	t.Helper()
	lists := 0
	for at := 0; at < routers; at++ {
		for dst := 0; dst < routers; dst++ {
			for i, cands := range [][]Candidate{
				tab.Candidates(AdaptiveMinimal, at, dst, false),
				tab.Candidates(XY, at, dst, false),
				tab.Candidates(UpDown, at, dst, false),
				tab.Candidates(UpDown, at, dst, true),
				tab.AllOutputs(at, dst),
			} {
				for j := 1; j < len(cands); j++ {
					if cands[j-1].LinkID() >= cands[j].LinkID() {
						t.Fatalf("%s: list %d for (%d,%d) does not ascend by link ID: %+v", what, i, at, dst, cands)
					}
				}
				if len(cands) > 1 {
					lists++
				}
			}
		}
	}
	if lists == 0 {
		t.Fatalf("%s: no list with two candidates", what)
	}
}
