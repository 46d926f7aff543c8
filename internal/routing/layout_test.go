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
// table. Kinds not materialized yet are materialized by its lookups, in
// the order it makes them.
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
			var xy []Candidate
			if tab.mesh != nil {
				xy = tab.appendXY(nil, at, dst)
			}
			check("xy", at, dst, tab.Candidates(XY, at, dst, false), xy)
			for _, phase := range []bool{false, true} {
				// The lookup comes first: the generator reads the up*/down*
				// numbering the lookup materializes.
				got := tab.Candidates(UpDown, at, dst, phase)
				check("updown", at, dst, got, tab.appendUpDown(nil, at, dst, phase))
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

// materializers touch one candidate kind each, the way a caller that
// declared nothing would: through the cold path of its first lookup.
var materializers = []struct {
	name  string
	touch func(*Table)
}{
	{"adaptive", func(t *Table) { t.Candidates(AdaptiveMinimal, 0, 1, false) }},
	{"xy", func(t *Table) { t.Candidates(XY, 0, 1, false) }},
	{"updown", func(t *Table) { t.Candidates(UpDown, 0, 1, false) }},
	{"updown/down", func(t *Table) { t.Candidates(UpDown, 0, 1, true) }},
	{"AllOutputs", func(t *Table) { t.AllOutputs(0, 1) }},
	{"AllOutputsPreferProductive", func(t *Table) { t.AllOutputsPreferProductive(0, 1) }},
}

// TestMaterializedInEveryOrder builds a table per permutation of the six
// kinds, materializes them in that order, and holds the result to the two
// layout contracts: it matches the generators cell by cell, and its lists
// ascend by link ID. What a kind holds may not depend on which kinds
// existed when it was built (AllOutputsPreferProductive reads AllOutputs;
// both up*/down* phases share one numbering).
func TestMaterializedInEveryOrder(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	g, err := topology.RemoveRandomLinks(mesh.Graph, 3, testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(materializers))
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
				name += materializers[i].name + " "
				materializers[i].touch(tab)
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
	if orders != 720 {
		t.Fatalf("checked %d orders, want 6! = 720", orders)
	}
}

// TestMaterializeConcurrently shares one table between eight goroutines
// the way concurrent simulations share one: each declares the kinds it
// routes with, in its own order, and reads every list of a kind as soon
// as it has declared it — while the others are still materializing
// theirs. Under -race this is the table's synchronization contract
// (Materialize and the productive-first once are the only write paths a
// reader can meet); afterwards the shared table must pass both layout
// checks.
func TestMaterializeConcurrently(t *testing.T) {
	mesh := topology.MustMesh(6, 6)
	for round := 0; round < 4; round++ {
		tab := newTable(t, mesh.Graph, mesh)
		n := mesh.Graph.N()
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
				t.Error("a materialized kind holds no candidates")
			}
		}
		kind := func(k Kind, down bool) func(at, dst int) []Candidate {
			return func(at, dst int) []Candidate { return tab.Candidates(k, at, dst, down) }
		}
		steps := []func(){
			func() { tab.Materialize(false, AdaptiveMinimal); readAll(kind(AdaptiveMinimal, false)) },
			func() { tab.Materialize(false, XY); readAll(kind(XY, false)) },
			func() { tab.Materialize(false, UpDown); readAll(kind(UpDown, false)); readAll(kind(UpDown, true)) },
			func() { tab.Materialize(true); readAll(tab.AllOutputs) },
			func() { readAll(tab.AllOutputsPreferProductive) },
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
// distance tables and their scratch (measured 11 allocations), a kind is
// its offsets, its arena and the generation buffer, the up*/down* kinds
// share one numbering — so a table a DRAIN network routes with measures
// 16 and one with every kind 35, not one allocation per row or per
// destination (the [][]Candidate layout with per-destination BFS queues
// took 1470). Declaring or looking up what exists allocates nothing.
func TestNewTableAllocs(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	var tab *Table
	for _, tc := range []struct {
		name        string
		materialize func()
		ceiling     float64
	}{
		{"no kind", func() {}, 16},
		{"a DRAIN network's kinds", func() { tab.Materialize(true, AdaptiveMinimal, AdaptiveMinimal) }, 24},
		{"every kind", func() {
			tab.Materialize(true, AdaptiveMinimal, XY, UpDown)
			tab.AllOutputsPreferProductive(0, 1)
		}, 48},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if tab, err = NewTable(mesh.Graph, mesh); err != nil {
				t.Fatal(err)
			}
			tc.materialize()
		})
		if allocs > tc.ceiling {
			t.Errorf("NewTable(8x8) with %s makes %.0f allocations, want <= %.0f", tc.name, allocs, tc.ceiling)
		}
		if warm := testing.AllocsPerRun(10, tc.materialize); warm != 0 {
			t.Errorf("%s, materialized again: %.0f allocations, want 0", tc.name, warm)
		}
	}
}
