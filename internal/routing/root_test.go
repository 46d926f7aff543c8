package routing

import (
	"testing"

	"drain/internal/topology"
)

func TestNewTableWithRootValidation(t *testing.T) {
	g := topology.MustMesh(3, 3).Graph
	if _, err := NewTableWithRoot(g, nil, -1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := NewTableWithRoot(g, nil, 9); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := NewTableWithRoot(g, nil, 4); err != nil {
		t.Errorf("center root rejected: %v", err)
	}
}

func TestUpDownLegalForEveryRoot(t *testing.T) {
	// up*/down* must reach all pairs regardless of root placement.
	g := topology.MustMesh(4, 4).Graph
	for root := 0; root < g.N(); root += 5 {
		tab, err := NewTableWithRoot(g, nil, root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for src := 0; src < g.N(); src++ {
			for dst := 0; dst < g.N(); dst++ {
				if src == dst {
					continue
				}
				if tab.UpDownDist(src, false, dst) < 0 {
					t.Fatalf("root %d: %d cannot reach %d", root, src, dst)
				}
			}
		}
	}
}

func TestRootChangesOrdering(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	a, err := NewTableWithRoot(g, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTableWithRoot(g, nil, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Edge 0-1: toward 0 is up under root 0, down under root 15.
	if !a.IsUp(1, 0) {
		t.Error("root 0: 1→0 should be up")
	}
	if b.IsUp(1, 0) {
		t.Error("root 15: 1→0 should be down")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		AdaptiveMinimal: "adaptive", XY: "xy", UpDown: "updown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestAllOutputsIncludesUTurnNeighbors(t *testing.T) {
	// AllOutputs from a degree-2 router lists both links, marking only
	// the distance-reducing one productive.
	g := topology.MustMesh(3, 1).Graph
	tab, err := NewTable(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands := tab.AllOutputs(1, 2)
	if len(cands) != 2 {
		t.Fatalf("AllOutputs = %d candidates, want 2", len(cands))
	}
	prod := 0
	for _, c := range cands {
		if c.Productive() {
			prod++
			if g.Link(c.LinkID()).To != 2 {
				t.Error("productive candidate does not reduce distance")
			}
		}
	}
	if prod != 1 {
		t.Errorf("%d productive candidates, want 1", prod)
	}
	if got := tab.AllOutputs(2, 2); len(got) != 0 {
		t.Error("AllOutputs at destination should be empty")
	}
}
