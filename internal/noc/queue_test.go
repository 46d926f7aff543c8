package noc

import "testing"

func TestPktQueueFIFO(t *testing.T) {
	q := newPktQueue(2)
	if q.Len() != 0 || q.Pop() != nil || q.Peek() != nil {
		t.Fatal("empty queue misbehaves")
	}
	mk := func(id int64) *Packet { return &Packet{ID: id} }
	// Push beyond the initial capacity, interleaved with pops so the ring
	// wraps, and check strict FIFO order throughout.
	next := int64(0)
	want := int64(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.Push(mk(next))
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if got := q.Peek(); got == nil || got.ID != want {
				t.Fatalf("Peek = %v, want ID %d", got, want)
			}
			if got := q.Pop(); got.ID != want {
				t.Fatalf("Pop = %d, want %d", got.ID, want)
			}
			want++
		}
	}
	push(2)
	pop(1)  // head advances: ring is offset
	push(6) // forces a grow with wrapped contents
	pop(7)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", q.Len())
	}
	push(5)
	pop(5)
}

func TestPktQueueZeroCap(t *testing.T) {
	q := newPktQueue(0)
	for i := int64(0); i < 10; i++ {
		q.Push(&Packet{ID: i})
	}
	for i := int64(0); i < 10; i++ {
		if got := q.Pop(); got.ID != i {
			t.Fatalf("Pop = %d, want %d", got.ID, i)
		}
	}
}

// TestPktQueueSteadyStateNoGrow checks that a pre-sized ring cycling at
// its capacity never reallocates (the property the per-class ejection
// queues rely on for allocation-free Step).
func TestPktQueueSteadyStateNoGrow(t *testing.T) {
	q := newPktQueue(4)
	buf0 := &q.buf[0]
	for i := 0; i < 100; i++ {
		q.Push(&Packet{ID: int64(i)})
		if i >= 3 {
			q.Pop()
		}
	}
	if &q.buf[0] != buf0 {
		t.Error("ring reallocated while cycling within its capacity")
	}
}
