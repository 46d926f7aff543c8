package topology

import (
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// fixedRand seeds quick.Check's input stream: its default is seeded from
// the clock, which makes a property test's verdict depend on when it ran.
func fixedRand() *mrand.Rand { return mrand.New(mrand.NewSource(1)) }

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(2, []Edge{{A: 0, B: 0}}); err == nil {
		t.Error("self-loop should fail")
	}
	if _, err := New(2, []Edge{{A: 0, B: 1}, {A: 1, B: 0}}); err == nil {
		t.Error("duplicate edge (reversed) should fail")
	}
	if _, err := New(2, []Edge{{A: 0, B: 5}}); err == nil {
		t.Error("out-of-range edge should fail")
	}
}

func TestMeshStructure(t *testing.T) {
	m := MustMesh(4, 4)
	if m.N() != 16 {
		t.Fatalf("N = %d, want 16", m.N())
	}
	// 2D mesh edge count: h*(w-1) + w*(h-1) = 4*3 + 4*3 = 24.
	if got := len(m.Edges()); got != 24 {
		t.Errorf("edges = %d, want 24", got)
	}
	if got := m.NumLinks(); got != 48 {
		t.Errorf("links = %d, want 48", got)
	}
	if !m.Connected() {
		t.Error("mesh must be connected")
	}
	if d := m.Diameter(); d != 6 {
		t.Errorf("diameter = %d, want 6", d)
	}
	// Corner degree 2, edge degree 3, center degree 4.
	wantDeg := map[int]int{0: 2, 1: 3, 5: 4}
	for r, want := range wantDeg {
		if got := m.Degree(r); got != want {
			t.Errorf("degree(%d) = %d, want %d", r, got, want)
		}
	}
	x, y := m.XY(7)
	if x != 3 || y != 1 {
		t.Errorf("XY(7) = (%d,%d), want (3,1)", x, y)
	}
	if m.RouterAt(3, 1) != 7 {
		t.Errorf("RouterAt(3,1) = %d, want 7", m.RouterAt(3, 1))
	}
}

func TestLinkIndexingAndReverse(t *testing.T) {
	g := MustMesh(3, 3).Graph
	for _, l := range g.Links() {
		id, ok := g.LinkID(l.From, l.To)
		if !ok || id != l.ID {
			t.Fatalf("LinkID(%v) = %d,%v, want %d,true", l, id, ok, l.ID)
		}
		r := g.Reverse(l)
		if r.From != l.To || r.To != l.From {
			t.Fatalf("Reverse(%v) = %v", l, r)
		}
		if g.Reverse(r) != l {
			t.Fatalf("Reverse(Reverse(%v)) != %v", l, l)
		}
	}
	if _, ok := g.LinkID(0, 8); ok {
		t.Error("LinkID for non-adjacent pair should not exist")
	}
}

func TestBFSDistMatchesManhattanOnMesh(t *testing.T) {
	m := MustMesh(5, 3)
	for src := 0; src < m.N(); src++ {
		dist := m.BFSDist(src)
		sx, sy := m.XY(src)
		for dst := 0; dst < m.N(); dst++ {
			dx, dy := m.XY(dst)
			man := abs(dx-sx) + abs(dy-sy)
			if dist[dst] != man {
				t.Fatalf("dist(%d,%d) = %d, want %d", src, dst, dist[dst], man)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestWithoutEdge(t *testing.T) {
	g := MustMesh(3, 3).Graph
	before := len(g.Edges())
	h, err := g.WithoutEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Edges()) != before-1 {
		t.Errorf("edges after removal = %d, want %d", len(h.Edges()), before-1)
	}
	if h.HasEdge(0, 1) {
		t.Error("edge 0-1 still present")
	}
	if len(g.Edges()) != before {
		t.Error("original graph mutated")
	}
	if _, err := h.WithoutEdge(0, 1); err == nil {
		t.Error("removing a missing edge should fail")
	}
}

func TestRemoveRandomLinksPreservesConnectivity(t *testing.T) {
	rng := testRNG(1)
	base := MustMesh(8, 8).Graph
	for k := 0; k <= 12; k += 4 {
		g, err := RemoveRandomLinks(base, k, rng)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !g.Connected() {
			t.Fatalf("k=%d: result disconnected", k)
		}
		if got, want := len(g.Edges()), len(base.Edges())-k; got != want {
			t.Fatalf("k=%d: edges = %d, want %d", k, got, want)
		}
	}
}

func TestRemoveRandomLinksRefusesDisconnection(t *testing.T) {
	ring, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	// A 4-ring tolerates exactly 1 removal; the 2nd would need a bridge cut.
	if _, err := RemoveRandomLinks(ring, 2, testRNG(2)); err == nil {
		t.Error("expected failure removing 2 links from a 4-ring")
	}
	g, err := RemoveRandomLinks(ring, 1, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Error("1-removal result disconnected")
	}
}

func TestBridgesOnKnownGraphs(t *testing.T) {
	// Path graph: every edge is a bridge → nothing is removable.
	path := MustNew(4, []Edge{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}})
	if got := RemovableEdges(path); len(got) != 0 {
		t.Errorf("path graph removable edges = %v, want none", got)
	}
	// Ring: no bridges → all removable.
	ring, _ := NewRing(5)
	if got := RemovableEdges(ring); len(got) != 5 {
		t.Errorf("ring removable edges = %d, want 5", len(got))
	}
	// Two triangles joined by one bridge.
	barbell := MustNew(6, []Edge{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 0, B: 2},
		{A: 3, B: 4}, {A: 4, B: 5}, {A: 3, B: 5},
		{A: 2, B: 3},
	})
	if got := RemovableEdges(barbell); len(got) != 6 {
		t.Errorf("barbell removable edges = %d, want 6", len(got))
	}
}

func TestRingAndChiplet(t *testing.T) {
	if _, err := NewRing(2); err == nil {
		t.Error("ring of 2 should fail")
	}
	for _, chiplets := range []int{2, 3, 4} {
		g, err := NewChiplet(chiplets, 2, 2)
		if err != nil {
			t.Fatalf("chiplets=%d: %v", chiplets, err)
		}
		if !g.Connected() {
			t.Fatalf("chiplets=%d: disconnected", chiplets)
		}
		if got, want := g.N(), chiplets*4+chiplets; got != want {
			t.Fatalf("chiplets=%d: N=%d, want %d", chiplets, got, want)
		}
	}
	if _, err := NewChiplet(1, 2, 2); err == nil {
		t.Error("single chiplet should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := MustMesh(3, 3).Graph
	c := g.Clone()
	h, err := c.WithoutEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	if !g.HasEdge(0, 1) {
		t.Error("WithoutEdge on clone affected original")
	}
}

// Property: random connected graphs are connected, have valid links, and
// every BFS distance is symmetric.
func TestRandomConnectedProperties(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := int(nRaw%30) + 2
		extra := int(extraRaw % 20)
		g, err := NewRandomConnected(n, extra, testRNG(seed))
		if err != nil {
			return false
		}
		if !g.Connected() {
			return false
		}
		all := g.AllPairsDist()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if all[a][b] != all[b][a] || all[a][b] < 0 {
					return false
				}
			}
		}
		// Link IDs are dense and pair opposing channels via ID^1.
		for _, l := range g.Links() {
			r := g.Link(l.ID ^ 1)
			if r.From != l.To || r.To != l.From {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// checkOutLinks verifies the OutLinks contract on g: OutLinks(r)[i] is
// the link r -> Neighbors(r)[i], and the IDs ascend.
func checkOutLinks(g *Graph) error {
	total := 0
	for r := 0; r < g.N(); r++ {
		nbs, out := g.Neighbors(r), g.OutLinks(r)
		if len(out) != len(nbs) {
			return fmt.Errorf("router %d: %d out-links for %d neighbors", r, len(out), len(nbs))
		}
		for i, id := range out {
			if want, ok := g.LinkID(r, nbs[i]); !ok || id != want {
				return fmt.Errorf("router %d: OutLinks[%d] = %d, link to neighbor %d is %d", r, i, id, nbs[i], want)
			}
			if i > 0 && out[i-1] >= id {
				return fmt.Errorf("router %d: out-link IDs %v do not ascend", r, out)
			}
		}
		total += len(out)
	}
	if total != g.NumLinks() {
		return fmt.Errorf("out-link lists hold %d links, graph has %d", total, g.NumLinks())
	}
	return nil
}

// Property: OutLinks is parallel to Neighbors and ascends, on random
// topologies and on every graph of a WithoutEdge/WithEdge round trip.
func TestOutLinksParallelToNeighbors(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		g, err := NewRandomConnected(int(nRaw%30)+2, int(extraRaw%20), testRNG(seed))
		if err != nil {
			return false
		}
		graphs := []*Graph{g, g.Clone()}
		if edges := RemovableEdges(g); len(edges) > 0 {
			e := edges[int(seed%uint64(len(edges)))]
			cut, err := g.WithoutEdge(e.A, e.B)
			if err != nil {
				return false
			}
			back, err := cut.WithEdge(e.B, e.A)
			if err != nil {
				return false
			}
			graphs = append(graphs, cut, back)
		}
		for _, h := range graphs {
			if err := checkOutLinks(h); err != nil {
				t.Logf("seed=%#x: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
	if err := checkOutLinks(MustMesh(8, 8).Graph); err != nil {
		t.Error(err)
	}
}

// Property: removing random links from a mesh never disconnects it and
// never increases path diversity (diameter can only grow or stay equal).
func TestFaultInjectionProperties(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw % 10)
		base := MustMesh(6, 6).Graph
		g, err := RemoveRandomLinks(base, k, testRNG(seed))
		if err != nil {
			return false
		}
		return g.Connected() && g.Diameter() >= base.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}
