package dense

import (
	"math/rand"
	"testing"
)

// TestTableBasic exercises the zero-value table through put/get/delete.
func TestTableBasic(t *testing.T) {
	var tb Table[string]
	if _, ok := tb.Get(1); ok || tb.Len() != 0 {
		t.Fatal("zero table should be empty")
	}
	if tb.Delete(1) {
		t.Fatal("delete on empty table reported true")
	}
	tb.Put(1, "a")
	tb.Put(2, "b")
	tb.Put(1, "a2") // replace
	if v, ok := tb.Get(1); !ok || v != "a2" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if !tb.Delete(1) || tb.Delete(1) {
		t.Fatal("Delete(1) should succeed once")
	}
	if _, ok := tb.Get(1); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tb.Get(2); !ok || v != "b" {
		t.Fatalf("Get(2) = %q, %v after unrelated delete", v, ok)
	}
}

// TestTableAgainstMap drives the table and a reference map through the
// same randomized operation sequence — including delete-heavy phases
// that stress backward-shift compaction — and checks they always agree.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tb Table[int]
	ref := map[int64]int{}
	const keySpace = 200 // small: forces long probe chains and collisions
	for op := 0; op < 20000; op++ {
		k := rng.Int63n(keySpace)
		switch rng.Intn(3) {
		case 0: // put
			tb.Put(k, op)
			ref[k] = op
		case 1: // delete
			got, want := tb.Delete(k), false
			if _, ok := ref[k]; ok {
				want = true
				delete(ref, k)
			}
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
		case 2: // get
			gv, gok := tb.Get(k)
			wv, wok := ref[k]
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, gv, gok, wv, wok)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, map has %d", op, tb.Len(), len(ref))
		}
	}
	// Full-content check via Each.
	seen := map[int64]int{}
	tb.Each(func(k int64, v int) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Each visited key %d twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Each visited %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Each saw %d=%d, want %d", k, seen[k], v)
		}
	}
}

// TestTableEachDeterministic pins that two tables built by the same
// operation sequence iterate in the same order (the property coherence
// relies on for byte-identical folds).
func TestTableEachDeterministic(t *testing.T) {
	build := func() *Table[int] {
		var tb Table[int]
		for i := 0; i < 500; i++ {
			tb.Put(int64(i*7919), i)
		}
		for i := 0; i < 500; i += 3 {
			tb.Delete(int64(i * 7919))
		}
		return &tb
	}
	a, b := build(), build()
	var orderA, orderB []int64
	a.Each(func(k int64, _ int) bool { orderA = append(orderA, k); return true })
	b.Each(func(k int64, _ int) bool { orderB = append(orderB, k); return true })
	if len(orderA) != len(orderB) {
		t.Fatalf("lengths differ: %d vs %d", len(orderA), len(orderB))
	}
	for i := range orderA {
		if orderA[i] != orderB[i] {
			t.Fatalf("iteration order diverges at %d: %d vs %d", i, orderA[i], orderB[i])
		}
	}
	// Early stop is honored.
	n := 0
	a.Each(func(int64, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d entries, want 3", n)
	}
}

// TestReserveSizesOnce pins Reserve's contract: a table sized for n
// entries keeps its slots through n Puts, and holds exactly what an
// unsized table with the same history holds (in its own slot order,
// which is all the capacity may change).
func TestReserveSizesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 12, 13, 96, 128, 1000} {
		var sized, grown Table[int]
		sized.Reserve(n)
		slots := len(sized.keys)
		for i := 0; i < n; i++ {
			k := int64(i) * 7919
			sized.Put(k, i)
			grown.Put(k, i)
		}
		if len(sized.keys) != slots {
			t.Errorf("n=%d: Reserve gave %d slots, %d Puts grew them to %d", n, slots, n, len(sized.keys))
		}
		if len(sized.keys) != len(grown.keys) {
			t.Errorf("n=%d: %d slots reserved, growth reached %d", n, len(sized.keys), len(grown.keys))
		}
		seen := map[int64]int{}
		sized.Each(func(k int64, v int) bool { seen[k] = v; return true })
		grown.Each(func(k int64, v int) bool {
			if got, ok := seen[k]; !ok || got != v {
				t.Fatalf("n=%d: key %d holds %d unsized, %d,%v sized", n, k, v, got, ok)
			}
			delete(seen, k)
			return true
		})
		if len(seen) != 0 {
			t.Errorf("n=%d: the sized table holds %d keys the unsized one does not", n, len(seen))
		}
	}
	// Reserving less than the table already holds changes nothing.
	var tb Table[int]
	tb.Reserve(100)
	slots := len(tb.keys)
	tb.Reserve(10)
	if len(tb.keys) != slots {
		t.Errorf("Reserve(10) after Reserve(100) resized %d slots to %d", slots, len(tb.keys))
	}
}

// TestTableEachOrderIsHistoryNotAge pins the backward-shift property:
// a table that grew and shrank back iterates identically to one that
// only ever held the surviving entries via the same probe layout — no
// tombstone residue changes the walk.
func TestTableEachOrderIsHistoryNotAge(t *testing.T) {
	var tb Table[int]
	for i := 0; i < 64; i++ {
		tb.Put(int64(i), i)
	}
	for i := 0; i < 64; i++ {
		tb.Delete(int64(i))
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tb.Len())
	}
	tb.Each(func(k int64, _ int) bool {
		t.Fatalf("Each visited %d in an empty table", k)
		return false
	})
	// Reinsert: probes must find clean slots (no tombstone walk).
	tb.Put(99, 1)
	if v, ok := tb.Get(99); !ok || v != 1 {
		t.Fatal("reinsert after full drain failed")
	}
}
