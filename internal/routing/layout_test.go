package routing

import (
	"slices"
	"sync"
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
		requireMatchesGenerators(t, tc.name, tc.tab)
	}
}

// requireMatchesGenerators is TestTableMatchesGenerators' check of one
// table. Kinds not built yet are built by its lookups, in the order it
// makes them.
func requireMatchesGenerators(t *testing.T, name string, tab *Table) {
	t.Helper()
	check := func(what string, at, dst int, got, want []Candidate) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s(%d,%d) = %v, generator gives %v", name, what, at, dst, got, want)
		}
		if len(want) == 0 && got != nil {
			t.Fatalf("%s: %s(%d,%d) is empty but not nil", name, what, at, dst)
		}
		if cap(got) != len(got) {
			t.Fatalf("%s: %s(%d,%d) has len %d cap %d", name, what, at, dst, len(got), cap(got))
		}
	}
	n := tab.Graph().N()
	for at := 0; at < n; at++ {
		for dst := 0; dst < n; dst++ {
			check("adaptive", at, dst, tab.Candidates(AdaptiveMinimal, at, dst, false), tab.appendAdaptive(nil, at, dst))
			check("xy", at, dst, tab.Candidates(XY, at, dst, false), tab.appendXY(nil, at, dst))
			for _, phase := range []bool{false, true} {
				// The lookup comes first: the generator reads the up*/down*
				// numbering the lookup builds.
				got := tab.Candidates(UpDown, at, dst, phase)
				check("updown", at, dst, got, tab.appendUpDown(nil, at, dst, phase))
			}
			check("AllOutputs", at, dst, tab.AllOutputs(at, dst), tab.appendAllOutputs(nil, at, dst))
		}
	}
}

// firstReads read one candidate kind each, the way any caller does: a
// kind nobody has read yet is built by its first read.
var firstReads = []struct {
	name string
	read func(*Table)
}{
	{"adaptive", func(t *Table) { t.Candidates(AdaptiveMinimal, 0, 1, false) }},
	{"xy", func(t *Table) { t.Candidates(XY, 0, 1, false) }},
	{"updown", func(t *Table) { t.Candidates(UpDown, 0, 1, false) }},
	{"updown/down", func(t *Table) { t.Candidates(UpDown, 0, 1, true) }},
	{"AllOutputs", func(t *Table) { t.AllOutputs(0, 1) }},
}

// TestFirstReadsInEveryOrder builds a table per permutation of the five
// kinds, reads them first in that order, and holds the result to the two
// layout contracts: it matches the generators cell by cell, and its lists
// ascend by link ID. What a kind holds may not depend on which kinds
// existed when it was built (both up*/down* phases share one numbering).
func TestFirstReadsInEveryOrder(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	g, err := topology.RemoveRandomLinks(mesh.Graph, 3, testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(firstReads))
	for i := range order {
		order[i] = i
	}
	orders := 0
	var permute func(k int)
	permute = func(k int) {
		if k == len(order) {
			orders++
			name := ""
			tab := newTable(t, g, mesh)
			for _, i := range order {
				name += firstReads[i].name + " "
				firstReads[i].read(tab)
			}
			requireMatchesGenerators(t, name, tab)
			requireListsAscend(t, name, tab, g.N())
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	if orders != 120 {
		t.Fatalf("checked %d orders, want 5! = 120", orders)
	}
}

// TestFirstReadsConcurrently shares one fresh table between eight
// goroutines, as concurrent simulations and analyses share one: each
// reads every list of every kind, and the up*/down* numbering, in its own
// order and with nothing declared, so the first reads of every kind race
// with each other and with reads of kinds another goroutine has just
// built. Under -race this is the table's synchronization contract;
// afterwards the shared table must pass both layout checks.
func TestFirstReadsConcurrently(t *testing.T) {
	mesh := topology.MustMesh(6, 6)
	n := mesh.Graph.N()
	for round := 0; round < 4; round++ {
		tab := newTable(t, mesh.Graph, mesh)
		readAll := func(get func(at, dst int) []Candidate) {
			links := 0
			for at := 0; at < n; at++ {
				for dst := 0; dst < n; dst++ {
					for _, c := range get(at, dst) {
						links += c.LinkID()
					}
				}
			}
			if links == 0 {
				t.Error("a kind holds no candidates")
			}
		}
		kind := func(k Kind, down bool) func() {
			return func() { readAll(func(at, dst int) []Candidate { return tab.Candidates(k, at, dst, down) }) }
		}
		steps := []func(){
			kind(AdaptiveMinimal, false),
			kind(XY, false),
			kind(UpDown, false),
			kind(UpDown, true),
			func() { readAll(tab.AllOutputs) },
			func() {
				if !tab.IsUp(1, 0) || tab.UpDownDist(n-1, false, 0) != tab.Dist(n-1, 0) {
					t.Error("up*/down* numbering disagrees with the BFS tree rooted at 0")
				}
			},
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range steps {
					steps[(i+w+round)%len(steps)]()
				}
			}()
		}
		wg.Wait()
		requireMatchesGenerators(t, "shared", tab)
		requireListsAscend(t, "shared", tab, n)
	}
}

// TestNewTableAllocs bounds what one table costs: construction is the
// distance tables and their scratch (measured 11 allocations), a kind's
// first read builds its offsets, its arena and the generation buffer, the
// up*/down* kinds share one numbering — so a table a DRAIN network reads
// measures 16 and one with every kind 33, not one allocation per row or
// per destination (the [][]Candidate layout with per-destination BFS
// queues took 1470). A second read of what exists allocates nothing.
func TestNewTableAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	var tab *Table
	for _, tc := range []struct {
		name    string
		read    func()
		ceiling float64
	}{
		{"no kind", func() {}, 16},
		{"a DRAIN network's kinds", func() {
			tab.Candidates(AdaptiveMinimal, 0, 1, false)
			tab.AllOutputs(0, 1)
		}, 24},
		{"every kind", func() {
			for _, r := range firstReads {
				r.read(tab)
			}
			tab.IsUp(0, 1)
			tab.UpDownDist(0, false, 1)
		}, 48},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if tab, err = NewTable(mesh.Graph, mesh); err != nil {
				t.Fatal(err)
			}
			tc.read()
		})
		t.Logf("NewTable(8x8) with %s: %.0f allocations", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("NewTable(8x8) with %s makes %.0f allocations, want <= %.0f", tc.name, allocs, tc.ceiling)
		}
		if again := testing.AllocsPerRun(10, tc.read); again != 0 {
			t.Errorf("%s, read again: %.0f allocations, want 0", tc.name, again)
		}
	}
}
