package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"drain/internal/noc"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// pollCountCtx is a context whose Err() flips to Canceled after a fixed
// number of polls. It makes cancellation deterministic in simulated
// time: the step loop polls every noc.CancelCheckEvery cycles, so the
// cycle at which the run stops is exact and assertable.
type pollCountCtx struct {
	context.Context
	polls     int
	remaining int
}

func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls > c.remaining {
		return context.Canceled
	}
	return nil
}

func TestRunSyntheticCancelBoundedCycles(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Allow 3 successful polls (cycles 0, 1024, 2048); the 4th poll, at
	// cycle 3·CancelCheckEvery, observes the cancellation.
	ctx := &pollCountCtx{Context: context.Background(), remaining: 3}
	_, err = r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 16}, 0.05, 0, 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := r.Net.Cycle(), int64(3*noc.CancelCheckEvery); got != want {
		t.Errorf("run stopped at cycle %d, want exactly %d (bounded by CancelCheckEvery)", got, want)
	}
}

func TestRunAppCancelBoundedCycles(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Classes: 3, InjectCap: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCountCtx{Context: context.Background(), remaining: 2}
	_, err = r.RunAppContext(ctx, workload.MustGet("canneal"), 0, 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got, want := r.Net.Cycle(), int64(2*noc.CancelCheckEvery); got != want {
		t.Errorf("run stopped at cycle %d, want exactly %d", got, want)
	}
}

func TestRunSyntheticCancelPromptWallClock(t *testing.T) {
	r, err := Build(Params{Width: 8, Height: 8, Scheme: SchemeDRAIN, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 64}, 0.10, 0, 1<<40)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return within 10s")
	}
}

// TestContextVariantsIdenticalResults pins the contract that an
// undisturbed context changes nothing: RunSynthetic and
// RunSyntheticContext(Background) produce identical results.
func TestContextVariantsIdenticalResults(t *testing.T) {
	run := func(withCtx bool) SyntheticResult {
		r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var res SyntheticResult
		if withCtx {
			res, err = r.RunSyntheticContext(context.Background(), traffic.UniformRandom{N: 16}, 0.1, 500, 2000)
		} else {
			res, err = r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.1, 500, 2000)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.Accepted != b.Accepted || a.AvgLatency != b.AvgLatency ||
		a.P99Latency != b.P99Latency || a.Cycles != b.Cycles ||
		a.Counters.Injected != b.Counters.Injected || a.Counters.Ejected != b.Counters.Ejected ||
		a.Counters.Hops != b.Counters.Hops {
		t.Errorf("results differ:\nplain: %+v\nctx:   %+v", a, b)
	}
}

// TestCancelLeaksNoGoroutines cancels a run mid-flight and verifies the
// goroutine count settles back to its baseline.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: uint64(i) + 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			_, _ = r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 16}, 0.05, 0, 1<<40)
			close(done)
		}()
		time.Sleep(5 * time.Millisecond)
		cancel()
		<-done
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d after cancelled runs, baseline %d", runtime.NumGoroutine(), base)
}
