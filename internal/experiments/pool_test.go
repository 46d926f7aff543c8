package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachConfigCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 37
		hits := make([]atomic.Int32, n)
		if err := underSlots(t, context.Background(), NewSlots(workers), n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d called %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachConfigZeroAndNegative(t *testing.T) {
	called := false
	for _, n := range []int{0, -3} {
		if err := ForEachConfigContext(context.Background(), n, func(int) error { called = true; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if called {
		t.Error("fn called for n <= 0")
	}
}

// TestForEachConfigLowestError verifies the deterministic error contract:
// whichever worker count runs the jobs, the returned error is the one
// with the lowest index — the same error the serial loop stops at.
func TestForEachConfigLowestError(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := underSlots(t, context.Background(), NewSlots(workers), 50, func(i int) error {
			if i == 13 || i == 31 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 13 failed" {
			t.Errorf("workers=%d: got %v, want lowest-index error from job 13", workers, err)
		}
	}
}

// TestForEachConfigSerialStopsEarly checks that a call without a budget
// keeps the serial loop shape: later jobs never run once one fails.
func TestForEachConfigSerialStopsEarly(t *testing.T) {
	var calls int
	boom := errors.New("boom")
	err := ForEachConfigContext(context.Background(), 10, func(i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Errorf("serial run made %d calls after failure at index 3, want 4", calls)
	}
}

// TestForEachConfigContextCancel proves a cancelled fan-out returns
// promptly, dispatches no further indices, and leaves no worker
// goroutine behind.
func TestForEachConfigContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		const n = 10_000
		done := make(chan error, 1)
		go func() {
			done <- underSlots(t, ctx, NewSlots(workers), n, func(i int) error {
				calls.Add(1)
				if calls.Load() == 5 {
					cancel()
				}
				// Simulate work that itself observes ctx, as sim runs do.
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(time.Millisecond):
					return nil
				}
			})
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: cancelled fan-out did not return", workers)
		}
		if got := calls.Load(); got >= n {
			t.Errorf("workers=%d: all %d indices ran despite cancellation", workers, got)
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("workers=%d: %d goroutines after cancel, baseline %d", workers, got, base)
		}
		cancel()
	}
}

// renderTables renders an experiment's tables the way cmd/experiments
// writes them, minus the timing line.
func renderTables(tables []Table) string {
	var b strings.Builder
	for i := range tables {
		b.WriteString(tables[i].Markdown())
		b.WriteString("\n")
	}
	return b.String()
}

// TestParallelDeterminism runs a real figure on budgets of 1, 2 and 4
// run slots and requires byte-identical rendered markdown: every
// simulation owns its RNG, results land in index-addressed slots, and
// aggregation is a serial ordered pass, so the budget must be invisible
// in the output.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig14 three times")
	}
	e, ok := ByID("fig14")
	if !ok {
		t.Fatal("fig14 not registered")
	}
	var serial string
	for _, budget := range []int{1, 2, 4} {
		slots := NewSlots(budget)
		slots.TryAcquire()
		tables, err := e.Run(WithSlots(context.Background(), slots), Quick, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := renderTables(tables)
		if budget == 1 {
			serial = got
		} else if got != serial {
			t.Errorf("fig14 output differs between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s", budget, serial, got)
		}
	}
}

// underSlots runs ForEachConfigContext the way a server worker does: on
// a slot of the shared budget, held for the whole call.
func underSlots(t *testing.T, ctx context.Context, slots *Slots, n int, fn func(i int) error) error {
	t.Helper()
	if err := slots.Acquire(ctx); err != nil {
		t.Errorf("Acquire: %v", err)
		return err
	}
	defer slots.Release()
	return ForEachConfigContext(WithSlots(ctx, slots), n, fn)
}

// TestSlotsBoundConcurrency: a lone job spreads over every slot of the
// budget, and two simultaneous jobs together never exceed it.
func TestSlotsBoundConcurrency(t *testing.T) {
	const budget = 3
	slots := NewSlots(budget)
	var running, peak atomic.Int32
	enter := func() int32 {
		now := running.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				return now
			}
		}
	}

	// Lone job: every unit waits until budget units are in flight at once,
	// so the call returns only if the loop lends every spare slot.
	full := make(chan struct{})
	var once sync.Once
	err := underSlots(t, context.Background(), slots, budget, func(int) error {
		defer running.Add(-1)
		if enter() == budget {
			once.Do(func() { close(full) })
		}
		select {
		case <-full:
			return nil
		case <-time.After(30 * time.Second):
			return errors.New("lone job never had a unit on every slot")
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	peak.Store(0)
	var calls atomic.Int32
	var wg sync.WaitGroup
	for job := 0; job < 2; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := underSlots(t, context.Background(), slots, 200, func(int) error {
				enter()
				calls.Add(1)
				runtime.Gosched() // let the other job's units interleave
				running.Add(-1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > budget {
		t.Errorf("%d units ran at once on a budget of %d", got, budget)
	}
	if got := calls.Load(); got != 400 {
		t.Errorf("two jobs of 200 units made %d calls", got)
	}
	for i := 0; i < budget; i++ {
		if !slots.TryAcquire() {
			t.Fatalf("only %d of %d slots came back", i, budget)
		}
	}
}

// TestLentSlotGoesToWaitingJob: job A runs on both slots of a budget of
// two (its own and a lent one) and cannot finish — its first unit waits
// for job B to start, its helper has units without end. B can only start
// if A's helper gives the lent slot back between units, which the
// fixed-worker loop never did.
func TestLentSlotGoesToWaitingJob(t *testing.T) {
	slots := NewSlots(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lent := make(chan struct{})     // A's helper is running a unit
	bStarted := make(chan struct{}) // B got a slot and ran a unit
	var lentOnce sync.Once
	aDone := make(chan error, 1)
	go func() {
		aDone <- underSlots(t, ctx, slots, 1<<30, func(i int) error {
			if i == 0 {
				select {
				case <-bStarted:
					cancel() // stop dispatching A's endless units
					return nil
				case <-time.After(30 * time.Second):
					return errors.New("job B never got the lent slot")
				}
			}
			lentOnce.Do(func() { close(lent) })
			return nil
		})
	}()
	<-lent
	if err := underSlots(t, context.Background(), slots, 1, func(int) error {
		select {
		case err := <-aDone:
			t.Errorf("job A finished (%v) before job B started", err)
		default:
		}
		close(bStarted)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("job A: %v, want context.Canceled", err)
	}
}

// TestBudgetOfOneStartsNoHelper: on one slot — drainserved -workers 1 —
// or with no budget in the context, every unit runs on the calling
// goroutine, in order, and no goroutine is started.
func TestBudgetOfOneStartsNoHelper(t *testing.T) {
	check := func(name string, run func(n int, fn func(int) error) error) {
		base := runtime.NumGoroutine()
		next := 0
		if err := run(50, func(i int) error {
			if i != next {
				t.Errorf("%s: unit %d ran when %d was due", name, i, next)
			}
			next++
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%s: %d goroutines during unit %d, %d before the call", name, got, i, base)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if next != 50 {
			t.Errorf("%s: %d of 50 units ran", name, next)
		}
	}
	check("no budget", func(n int, fn func(int) error) error {
		return ForEachConfigContext(context.Background(), n, fn)
	})
	slots := NewSlots(1)
	check("shared", func(n int, fn func(int) error) error {
		return underSlots(t, context.Background(), slots, n, fn)
	})
}
