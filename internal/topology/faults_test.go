package topology

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// removeRandomLinksStepwise is the definition RemoveRandomLinks must
// reproduce draw for draw: k whole graphs, each the previous one without
// one randomly drawn non-bridge edge.
func removeRandomLinksStepwise(g *Graph, k int, rng *rand.Rand) (*Graph, error) {
	cur := g.Clone()
	for i := 0; i < k; i++ {
		candidates := RemovableEdges(cur)
		if len(candidates) == 0 {
			return nil, fmt.Errorf("topology: cannot remove link %d of %d without disconnecting the network", i+1, k)
		}
		e := candidates[rng.IntN(len(candidates))]
		next, err := cur.WithoutEdge(e.A, e.B)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// checkSameRemoval runs both versions from the same RNG state and
// requires the same graph — edges, link IDs, adjacency and out-link
// tables — or the same error, the same number of draws consumed, and an
// untouched input.
func checkSameRemoval(t *testing.T, name string, g *Graph, k int, seed uint64) {
	t.Helper()
	before := g.Clone()
	rngGot, rngWant := testRNG(seed), testRNG(seed)
	got, errGot := RemoveRandomLinks(g, k, rngGot)
	want, errWant := removeRandomLinksStepwise(g, k, rngWant)
	if !reflect.DeepEqual(g, before) {
		t.Fatalf("%s k=%d seed=%d: RemoveRandomLinks modified its input", name, k, seed)
	}
	if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
		t.Fatalf("%s k=%d seed=%d: error %v, want %v", name, k, seed, errGot, errWant)
	}
	if a, b := rngGot.Uint64(), rngWant.Uint64(); a != b {
		t.Fatalf("%s k=%d seed=%d: a different number of draws was taken", name, k, seed)
	}
	if errGot != nil {
		if got != nil {
			t.Fatalf("%s k=%d seed=%d: a graph came back with error %v", name, k, seed, errGot)
		}
		return
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s k=%d seed=%d: edges differ\n got %v\nwant %v", name, k, seed, got.Edges(), want.Edges())
	}
	if !reflect.DeepEqual(got.Links(), want.Links()) {
		t.Fatalf("%s k=%d seed=%d: link IDs differ", name, k, seed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s k=%d seed=%d: derived structures differ", name, k, seed)
	}
	if !got.Connected() || len(got.Edges()) != len(g.Edges())-max(k, 0) {
		t.Fatalf("%s k=%d seed=%d: %d of %d edges left, connected=%v", name, k, seed, len(got.Edges()), len(g.Edges()), got.Connected())
	}
}

// TestRemoveRandomLinksMatchesStepwise is the differential test of the
// one-rebuild RemoveRandomLinks: every fault pattern the figures draw
// (and a 40-fault one that leaves almost only bridges), both sides of
// exhaustion, and the random graphs the fuzzers run on.
func TestRemoveRandomLinksMatchesStepwise(t *testing.T) {
	mesh := MustMesh(8, 8).Graph
	for _, k := range []int{0, 1, 4, 8, 12, 40} {
		for seed := uint64(1); seed <= 50; seed++ {
			checkSameRemoval(t, "mesh8x8", mesh, k, seed)
		}
	}
	// An 8x8 mesh has 112 edges and needs 63: the 50th removal must fail,
	// in both versions with the same message.
	for seed := uint64(1); seed <= 5; seed++ {
		checkSameRemoval(t, "mesh8x8", mesh, 49, seed)
		checkSameRemoval(t, "mesh8x8", mesh, 50, seed)
	}
	for seed := uint64(0); seed < 300; seed++ {
		n, extra := int(seed%16)+2, int(seed%7)
		g, err := NewRandomConnected(n, extra, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		// A tree plus e edges gives up exactly e of them: cover none,
		// some, all and one too many.
		spare := len(g.Edges()) - (n - 1)
		for _, k := range []int{0, 1, spare / 2, spare, spare + 1} {
			checkSameRemoval(t, fmt.Sprintf("random(n=%d,extra=%d)", n, extra), g, k, seed+1000)
		}
	}
	ring, _ := NewRing(6)
	checkSameRemoval(t, "ring6", ring, 1, 3)
	checkSameRemoval(t, "ring6", ring, 2, 3)
}

// TestRemoveRandomLinksBuildsOneGraph holds the fix in place: removing k
// links costs about what building the result costs, not k + 1 times that.
func TestRemoveRandomLinksBuildsOneGraph(t *testing.T) {
	mesh := MustMesh(8, 8).Graph
	one := testing.AllocsPerRun(20, func() {
		if _, err := RemoveRandomLinks(mesh, 1, testRNG(1)); err != nil {
			t.Fatal(err)
		}
	})
	twelve := testing.AllocsPerRun(20, func() {
		if _, err := RemoveRandomLinks(mesh, 12, testRNG(1)); err != nil {
			t.Fatal(err)
		}
	})
	// Each further link costs one bridge search (its three work slices
	// and a short bridge list), nothing that scales with the graph's
	// derived tables.
	if perLink := (twelve - one) / 11; perLink > 12 {
		t.Errorf("each removed link costs %.1f allocations (1 link: %.0f, 12 links: %.0f), want a bridge search's worth (≤ 12)", perLink, one, twelve)
	}
}
