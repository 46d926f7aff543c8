package experiments

import (
	"context"
	"sync"
	"sync/atomic"
)

// The experiment harness parallelizes at the granularity of independent
// units of work: every (topology, fault pattern, scheme, seed) cell of a
// figure is a pure function of its own parameters — each run builds its
// own Network with its own RNG — so the only coordination needed is
// collecting results by index. All aggregation (averaging, normalizing,
// rendering) stays serial and ordered, which makes the output byte-
// identical for every run-slot budget.

// SetParallelism is a shim and does nothing: the run-slot budget travels
// only in the context (WithSlots). It stays while the frozen
// cmd/drainbench/serve.go:38 calls it, and goes with that call.
func SetParallelism(int) {}

// Slots is a budget of run slots: at most its size units of work run at
// once across every ForEachConfigContext call whose context carries it.
// A goroutine that calls ForEachConfigContext under a budget must hold
// one of its slots (Acquire) for as long as the call runs; the call
// lends the budget's spare slots to helper goroutines of its own.
type Slots struct {
	free chan struct{} // one token per free slot
}

// NewSlots returns a budget of n run slots (at least one), all free.
func NewSlots(n int) *Slots {
	if n < 1 {
		n = 1
	}
	s := &Slots{free: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		s.free <- struct{}{}
	}
	return s
}

// Acquire takes a slot, waiting for one if none is free, unless ctx is
// done. A waiter is served ahead of any helper: helpers only ever
// TryAcquire, and a slot released while someone waits is handed to the
// waiter directly.
func (s *Slots) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-s.free:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot only if one is free right now.
func (s *Slots) TryAcquire() bool {
	select {
	case <-s.free:
		return true
	default:
		return false
	}
}

// Release gives back a slot taken by Acquire or TryAcquire.
func (s *Slots) Release() { s.free <- struct{}{} }

type slotsKey struct{}

// WithSlots returns a context under which ForEachConfigContext draws its
// helpers from s. The caller must hold one of s's slots while it runs
// experiments under the returned context.
func WithSlots(ctx context.Context, s *Slots) context.Context {
	return context.WithValue(ctx, slotsKey{}, s)
}

// ForEachConfigContext runs fn(i) for every i in [0, n) under ctx's
// run-slot budget (WithSlots), with cancellation. A context that carries
// no budget runs the calls serially on the calling goroutine. fn must be
// independent across indices (each call builds its own simulation state)
// and should write its result into an index-addressed slot;
// ForEachConfigContext provides no other result channel.
//
// Error semantics are deterministic: the error with the lowest index is
// returned regardless of budget or completion order, and no index is
// dispatched after one has failed. With a budget of 1 the calls run
// strictly serially, in order, stopping at the first error.
//
// The calling goroutine runs indices itself, in order, on the slot it
// holds. Before each of its units it starts a helper goroutine for every
// slot it can take without blocking; a helper gives its slot back after
// every unit and continues only if it can take one again at once, so
// another job waiting in Slots.Acquire starts within one unit and a slot
// that job later frees is picked up again at the caller's next unit.
//
// Once ctx is done no new index is dispatched, and after all in-flight
// calls return the context error is reported (unless an earlier real
// error takes precedence under the lowest-index rule). fn should itself
// observe ctx (e.g. via sim's *Context runners) so in-flight runs also
// stop promptly; ForEachConfigContext never abandons a running fn, so
// when it returns no helper goroutine is left behind.
func ForEachConfigContext(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	slots, _ := ctx.Value(slotsKey{}).(*Slots)
	if slots == nil {
		slots = NewSlots(1)
		slots.TryAcquire() // the caller's own: no slot is left to lend
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex // guards firstIdx, firstErr
		firstIdx = n
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	// take dispatches the next index, or -1 when there is none to give.
	take := func() int {
		if failed.Load() || ctx.Err() != nil {
			return -1
		}
		if i := int(next.Add(1)) - 1; i < n {
			return i
		}
		return -1
	}
	run := func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
			failed.Store(true)
		}
	}
	// helper runs i and then further indices, on a slot it already holds.
	helper := func(i int) {
		defer wg.Done()
		for i >= 0 {
			run(i)
			slots.Release()
			if !slots.TryAcquire() {
				return
			}
			i = take()
		}
		slots.Release()
	}
	for i := take(); i >= 0; i = take() {
		for slots.TryAcquire() {
			j := take()
			if j < 0 {
				slots.Release()
				break
			}
			wg.Add(1)
			go helper(j)
		}
		run(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if int(next.Load()) < n {
		return ctx.Err() // nothing failed, so only a done ctx stopped dispatch
	}
	return nil
}
