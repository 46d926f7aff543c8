package drainpath

import (
	"errors"
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

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xdeadbeef)) }

func TestFindEulerianOnMesh(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {8, 8}, {5, 3}} {
		g := topology.MustMesh(dims[0], dims[1]).Graph
		p, err := FindEulerian(g)
		if err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		if err := Validate(g, p); err != nil {
			t.Fatalf("%dx%d: %v", dims[0], dims[1], err)
		}
		if p.Len() != g.NumLinks() {
			t.Fatalf("%dx%d: path length %d, want %d", dims[0], dims[1], p.Len(), g.NumLinks())
		}
	}
}

func TestFindEulerianOnFaultyMesh(t *testing.T) {
	rng := testRNG(7)
	base := topology.MustMesh(8, 8).Graph
	for _, faults := range []int{1, 4, 8, 12} {
		g, err := topology.RemoveRandomLinks(base, faults, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := FindEulerian(g)
		if err != nil {
			t.Fatalf("faults=%d: %v", faults, err)
		}
		if err := Validate(g, p); err != nil {
			t.Fatalf("faults=%d: %v", faults, err)
		}
	}
}

func TestFindCoveringCycleMatchesEulerOnSmallTopologies(t *testing.T) {
	cases := []*topology.Graph{
		topology.MustMesh(2, 2).Graph,
		topology.MustMesh(3, 3).Graph,
		topology.MustMesh(4, 4).Graph,
		mustRing(t, 6),
	}
	for i, g := range cases {
		p, err := FindCoveringCycle(g, 0)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := Validate(g, p); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func mustRing(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topology.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFindCoveringCycleFigure6Topologies(t *testing.T) {
	// Paper Fig. 6 shows the algorithm's output on an irregular and a
	// regular topology; reproduce on a faulty 3x3 and a regular 4x4.
	g3, err := topology.MustMesh(3, 3).WithoutEdge(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topology.Graph{g3, topology.MustMesh(4, 4).Graph} {
		p, err := FindCoveringCycle(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNextIsPermutationCycle(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	p, err := FindEulerian(g)
	if err != nil {
		t.Fatal(err)
	}
	// Following Next from link 0 must traverse every link once and return.
	seen := make(map[int]bool, g.NumLinks())
	id := p.Seq[0].ID
	for i := 0; i < g.NumLinks(); i++ {
		if seen[id] {
			t.Fatalf("link %d revisited after %d steps", id, i)
		}
		seen[id] = true
		nxt := p.Next(id)
		if nxt.From != g.Link(id).To {
			t.Fatalf("turn from %v to %v is not at a shared router", g.Link(id), nxt)
		}
		id = nxt.ID
	}
	if id != p.Seq[0].ID {
		t.Fatalf("cycle did not close: ended at %d", id)
	}
}

func TestTurnTable(t *testing.T) {
	g := topology.MustMesh(3, 3).Graph
	p, err := FindEulerian(g)
	if err != nil {
		t.Fatal(err)
	}
	tables := p.TurnTable(g)
	entries := 0
	for r, tab := range tables {
		ins, outs := tab[0], tab[1]
		if len(ins) != len(outs) {
			t.Fatalf("router %d: %d inputs vs %d outputs", r, len(ins), len(outs))
		}
		for i := range ins {
			in, out := g.Link(ins[i]), g.Link(outs[i])
			if in.To != r {
				t.Fatalf("router %d: input link %v does not end here", r, in)
			}
			if out.From != r {
				t.Fatalf("router %d: output link %v does not start here", r, out)
			}
			if p.NextID(in.ID) != out.ID {
				t.Fatalf("router %d: table disagrees with path", r)
			}
		}
		entries += len(ins)
	}
	if entries != g.NumLinks() {
		t.Fatalf("turn tables hold %d entries, want %d", entries, g.NumLinks())
	}
}

func TestValidateRejectsBadPaths(t *testing.T) {
	g := topology.MustMesh(2, 2).Graph
	p, err := FindEulerian(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, nil); err == nil {
		t.Error("nil path should fail")
	}
	short := &Path{Seq: p.Seq[:2]}
	if err := Validate(g, short); err == nil {
		t.Error("short path should fail")
	}
	// A path valid for one topology must fail on another.
	other := topology.MustMesh(3, 3).Graph
	if err := Validate(other, p); err == nil {
		t.Error("path for wrong topology should fail")
	}
}

func TestDisconnectedAndEmptyTopologies(t *testing.T) {
	lonely := topology.MustNew(1, nil)
	if _, err := FindEulerian(lonely); err == nil {
		t.Error("no-link topology should fail")
	}
	disc := topology.MustNew(4, []topology.Edge{{A: 0, B: 1}, {A: 2, B: 3}})
	if _, err := FindEulerian(disc); err == nil {
		t.Error("disconnected topology should fail")
	}
	if _, err := FindCoveringCycle(disc, 0); err == nil {
		t.Error("disconnected topology should fail for search too")
	}
}

func TestSearchBudgetExhaustion(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	if _, err := FindCoveringCycle(g, 1); err == nil {
		t.Error("tiny budget should exhaust")
	}
}

// checkBothConstructions is the documented contract of the two
// constructions on one random connected topology: FindEulerian always
// succeeds and validates; the budgeted search either returns a path that
// validates or reports ErrSearchBudget — never an invalid path, never
// another error.
func checkBothConstructions(seed uint64, nRaw, extraRaw uint8) error {
	n := int(nRaw%20) + 2
	extra := int(extraRaw % 15)
	g, err := topology.NewRandomConnected(n, extra, testRNG(seed))
	if err != nil {
		return err
	}
	pe, err := FindEulerian(g)
	if err != nil {
		return fmt.Errorf("FindEulerian: %w", err)
	}
	if err := Validate(g, pe); err != nil {
		return fmt.Errorf("FindEulerian path invalid: %w", err)
	}
	if pe.Len() != g.NumLinks() {
		return fmt.Errorf("FindEulerian path covers %d of %d links", pe.Len(), g.NumLinks())
	}
	// A budget the search meets in milliseconds when its pruning works;
	// the default only makes the exhausting inputs take a second each.
	ps, err := FindCoveringCycle(g, 200_000)
	if errors.Is(err, ErrSearchBudget) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("FindCoveringCycle: %w", err)
	}
	if err := Validate(g, ps); err != nil {
		return fmt.Errorf("FindCoveringCycle path invalid: %w", err)
	}
	if ps.Len() != g.NumLinks() {
		return fmt.Errorf("FindCoveringCycle path covers %d of %d links", ps.Len(), g.NumLinks())
	}
	return nil
}

// Property: both constructions keep their contracts on arbitrary random
// connected topologies.
func TestDrainPathProperty(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		if err := checkBothConstructions(seed, nRaw, extraRaw); err != nil {
			t.Logf("seed=%#x n=%#x extra=%#x: %v", seed, nRaw, extraRaw, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// TestDrainPathSearchBudgetRegressions pins the two inputs on which the
// time-seeded form of the property used to fail about one run in eight:
// sparse graphs (n=21/extra=2 and n=16/extra=6) where the search
// exhausts even DefaultSearchBudget while FindEulerian succeeds.
func TestDrainPathSearchBudgetRegressions(t *testing.T) {
	for _, in := range []struct {
		name        string
		seed        uint64
		nRaw, extra uint8
	}{
		{"n21-extra2", 0x58a52cd2cbad677b, 0x8b, 0x5c},
		{"n16-extra6", 0x4ed23f50de0e62d9, 0x0e, 0xba},
	} {
		t.Run(in.name, func(t *testing.T) {
			if err := checkBothConstructions(in.seed, in.nRaw, in.extra); err != nil {
				t.Fatal(err)
			}
			g, err := topology.NewRandomConnected(int(in.nRaw%20)+2, int(in.extra%15), testRNG(in.seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FindCoveringCycle(g, 200_000); !errors.Is(err, ErrSearchBudget) {
				t.Errorf("FindCoveringCycle = %v, want ErrSearchBudget (the input no longer pins the exhaustion path)", err)
			}
		})
	}
}

// Property: the drain path visits every router at least once (needed for
// the protocol-level deadlock-freedom proof, paper §III-D2).
func TestDrainPathVisitsAllRouters(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g, err := topology.NewRandomConnected(n, 5, testRNG(seed))
		if err != nil {
			return false
		}
		p, err := FindEulerian(g)
		if err != nil {
			return false
		}
		visited := make([]bool, g.N())
		for _, l := range p.Seq {
			visited[l.From] = true
			visited[l.To] = true
		}
		for _, v := range visited {
			if !v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}
