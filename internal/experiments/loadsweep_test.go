package experiments

import (
	"context"
	"errors"
	"testing"

	"drain/internal/sim"
	"drain/internal/stats"
	"drain/internal/topology"
	"drain/internal/traffic"
)

func TestLoadSweepCancelledBetweenRates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LoadSweep(ctx, sim.Params{Width: 4, Height: 4, Scheme: sim.SchemeDRAIN, Seed: 1},
		"uniform", []float64{0.02, 0.05}, 100, 400)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLoadSweepMonotoneThroughput(t *testing.T) {
	curve, err := LoadSweep(context.Background(), sim.Params{Width: 4, Height: 4, Scheme: sim.SchemeDRAIN, Seed: 6, Epoch: 2000},
		"uniform", []float64{0.02, 0.10, 0.30}, 500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	if curve[0].AvgLat > curve[2].AvgLat {
		t.Errorf("latency decreased with load: %+v", curve)
	}
	if curve.Saturation() < curve[0].Accepted {
		t.Error("saturation below low-load accepted rate")
	}
}

// TestLoadSweepSharesOneTopology pins the sweep's hoisting and its
// fan-out: building the graph and routing table once, BuildOn per rate,
// and the rates spread over two run slots give exactly the points a
// fresh Build per rate gives, also on a faulty mesh whose fault schedule
// swaps each run's table mid-run.
func TestLoadSweepSharesOneTopology(t *testing.T) {
	rates := []float64{0.02, 0.10, 0.30}
	faulty := sim.Params{Width: 4, Height: 4, Faults: 3, FaultSeed: 2, Scheme: sim.SchemeDRAIN, Seed: 6, Epoch: 2000}
	g, _, err := faulty.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	e := topology.RemovableEdges(g)[0]
	faulty.FaultSchedule = []sim.FaultEvent{{Cycle: 900, A: e.A, B: e.B, Fail: true}}
	slots := NewSlots(2)
	slots.TryAcquire()
	ctx := WithSlots(context.Background(), slots)
	for _, p := range []sim.Params{{Width: 4, Height: 4, Scheme: sim.SchemeEscapeVC, Seed: 6}, faulty} {
		curve, err := LoadSweep(ctx, p, "uniform", rates, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for i, rate := range rates {
			r, err := sim.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, rate, 500, 3000)
			if err != nil {
				t.Fatal(err)
			}
			want := stats.LoadPoint{Offered: rate, Accepted: res.Accepted, AvgLat: res.AvgLatency, P99Lat: res.P99Latency}
			if curve[i] != want {
				t.Errorf("%v rate %.2f: sweep point %+v, fresh Build gives %+v", p.Scheme, rate, curve[i], want)
			}
		}
	}
}
