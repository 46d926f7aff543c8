package sim

import (
	"context"
	"errors"
	"testing"

	"drain/internal/noc"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// A Runner reused for back-to-back windows (the reconfig figure's shape:
// one live network, a link failing and recovering between windows) is
// credited once per run, by difference: the cycles sum to the clock and
// the reconfiguration counts to the network's own.
func TestTotalsCreditReusedRunnerOncePerRun(t *testing.T) {
	t.Parallel()
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Epoch: 256, Seed: 9,
		FaultSchedule: []FaultEvent{{Cycle: 700, A: 5, B: 6, Fail: true}, {Cycle: 1900, A: 5, B: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	var tot Totals
	ctx := WithTotals(context.Background(), &tot)
	for _, w := range []struct{ warmup, measure int64 }{{500, 100}, {0, 400}, {0, 800}, {0, 400}} {
		if _, err := r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 16}, 0.01, w.warmup, w.measure); err != nil {
			t.Fatal(err)
		}
	}
	c := r.Net.Counters
	if c.Reconfigs != 2 {
		t.Fatalf("the run shows nothing: %d reconfigurations, want 2", c.Reconfigs)
	}
	got := [4]int64{tot.Runs.Load(), tot.Cycles.Load(), tot.Reconfigs.Load(), tot.Rerouted.Load()}
	if want := [4]int64{4, r.Net.Cycle(), c.Reconfigs, c.FaultReroutes}; got != want || r.Net.Cycle() != 2200 {
		t.Errorf("totals (runs, cycles, reconfigs, rerouted) = %v, want %v with the clock at 2200", got, want)
	}
}

// A cancelled run is still a run: credited once, with the cycles it got
// through. So is an app run; a context without Totals costs nothing.
func TestTotalsCreditCancelledRuns(t *testing.T) {
	t.Parallel()
	var tot Totals
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCountCtx{Context: WithTotals(context.Background(), &tot), remaining: 3}
	if _, err = r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 16}, 0.05, 0, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs, cycles := tot.Runs.Load(), tot.Cycles.Load(); runs != 1 || cycles != 3*noc.CancelCheckEvery {
		t.Errorf("cancelled synthetic run credited %d runs, %d cycles; want 1 and %d", runs, cycles, 3*noc.CancelCheckEvery)
	}
	if _, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 0, 100); err != nil {
		t.Fatal(err)
	}
	if runs := tot.Runs.Load(); runs != 1 {
		t.Errorf("a run under a context without Totals moved them: %d runs", runs)
	}

	app, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Classes: 3, InjectCap: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx = &pollCountCtx{Context: WithTotals(context.Background(), &tot), remaining: 2}
	if _, err = app.RunAppContext(ctx, workload.MustGet("canneal"), 0, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs, cycles := tot.Runs.Load(), tot.Cycles.Load(); runs != 2 || cycles != 5*noc.CancelCheckEvery {
		t.Errorf("after the cancelled app run: %d runs, %d cycles; want 2 and %d", runs, cycles, 5*noc.CancelCheckEvery)
	}
}
