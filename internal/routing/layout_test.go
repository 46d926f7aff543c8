package routing

import (
	"slices"
	"testing"
	"unsafe"

	"drain/internal/topology"
)

// TestCandidateSize keeps the arena element from fattening again: at 16
// bytes a candidate (and a 24-byte header per pair) made an 8x8 table
// 1.28 MB.
func TestCandidateSize(t *testing.T) {
	if sz := unsafe.Sizeof(Candidate(0)); sz > 8 {
		t.Fatalf("Candidate is %d bytes, want <= 8", sz)
	}
	c := newCandidate(1<<30-1, true, false)
	if c.LinkID() != 1<<30-1 || !c.DownPhase() || c.Productive() {
		t.Fatalf("newCandidate round trip = %v", c)
	}
}

// TestTableMatchesGenerators checks the frozen offset/arena layout cell
// by cell against the per-pair generators it was built from: same
// candidates in the same order with the same flags, nil for an empty
// set, and a capacity clipped to the set so an append cannot reach the
// next pair's candidates.
func TestTableMatchesGenerators(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	faulty := func(faults int, seed uint64) *topology.Graph {
		g, err := topology.RemoveRandomLinks(mesh.Graph, faults, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	remapped, err := NewTableRemapped(faulty(6, 3), mesh.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tab  *Table
	}{
		{"8x8", newTable(t, mesh.Graph, mesh)},
		{"8x8 4 faults", newTable(t, faulty(4, 1), mesh)},
		{"8x8 12 faults", newTable(t, faulty(12, 2), mesh)},
		{"remapped 6 faults", remapped},
	} {
		tab := tc.tab
		check := func(what string, at, dst int, got, want []Candidate) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s(%d,%d) = %v, generator gives %v", tc.name, what, at, dst, got, want)
			}
			if len(want) == 0 && got != nil {
				t.Fatalf("%s: %s(%d,%d) is empty but not nil", tc.name, what, at, dst)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: %s(%d,%d) has len %d cap %d", tc.name, what, at, dst, len(got), cap(got))
			}
		}
		n := tab.Graph().N()
		for at := 0; at < n; at++ {
			for dst := 0; dst < n; dst++ {
				check("adaptive", at, dst, tab.Candidates(AdaptiveMinimal, at, dst, false), tab.appendAdaptive(nil, at, dst))
				var xy []Candidate
				if tab.mesh != nil {
					xy = tab.appendXY(nil, at, dst)
				}
				check("xy", at, dst, tab.Candidates(XY, at, dst, false), xy)
				for _, phase := range []bool{false, true} {
					check("updown", at, dst, tab.Candidates(UpDown, at, dst, phase), tab.appendUpDown(nil, at, dst, phase))
				}
				all := tab.appendAllOutputs(nil, at, dst)
				check("AllOutputs", at, dst, tab.AllOutputs(at, dst), all)
				slices.SortStableFunc(all, func(a, b Candidate) int {
					switch {
					case a.Productive() == b.Productive():
						return 0
					case a.Productive():
						return -1
					}
					return 1
				})
				check("AllOutputsPreferProductive", at, dst, tab.AllOutputsPreferProductive(at, dst), all)
			}
		}
	}
}

// TestNewTableAllocs bounds what one table costs to build: two
// allocations per kind plus the distance tables and their scratch, not
// one per row or per destination (measured 32; the [][]Candidate layout
// with per-destination BFS queues took 1470).
func TestNewTableAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewTable(mesh.Graph, mesh); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Fatalf("NewTable(8x8) makes %.0f allocations, want <= 48", allocs)
	}
}
