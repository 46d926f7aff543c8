package experiments

import (
	"context"
	"fmt"

	"drain/internal/sim"
	"drain/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Saturation throughput vs. faults (uniform random and transpose)",
		Paper: "Escape VCs yield the lowest throughput at every fault count. DRAIN matches " +
			"SPIN on uniform random and is at most slightly lower on transpose. All schemes " +
			"degrade as faults remove bandwidth.",
		Run: fig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Low-load packet latency vs. faults (uniform random and transpose)",
		Paper: "DRAIN matches SPIN; both beat escape VCs (whose turn-restricted escape " +
			"routing stretches paths). Latency rises with faults for every scheme.",
		Run: fig11,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Epoch sensitivity: low-load latency and saturation vs. drain epoch",
		Paper: "A 16-cycle epoch continuously flushes the network (terrible latency and " +
			"throughput); both metrics improve monotonically toward the 64K-cycle epoch.",
		Run: fig14,
	})
}

// synthMatrix runs the three schemes across fault counts at one rate,
// for uniform random and transpose traffic, averaging over fault
// patterns: one table per traffic pattern, titled title + ", <pattern>,
// 8x8".
func synthMatrix(ctx context.Context, sc Scale, seed uint64, id, title string, rate float64, metric func(sim.SyntheticResult) float64) ([]Table, error) {
	faults := []int{0, 4, 12}
	warm, meas := int64(1000), int64(4000)
	patterns := 2
	if sc == Full {
		faults = []int{0, 1, 4, 8, 12}
		warm, meas = 10_000, 50_000
		patterns = 10
	}
	var runs []sweepRun
	for _, scheme := range []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeSPIN, sim.SchemeDRAIN} {
		runs = append(runs, sweepRun{scheme, rate, metric})
	}
	patNames := []string{"uniform", "transpose"}
	pats := make([]traffic.Pattern, len(patNames))
	for ti, name := range patNames {
		pat, err := traffic.ByName(name, 64, 8)
		if err != nil {
			return nil, err
		}
		pats[ti] = pat
	}
	m, err := faultSweep(ctx, seed, faults, patterns, warm, meas, pats, runs)
	if err != nil {
		return nil, err
	}
	tables := make([]Table, len(pats))
	for ti := range pats {
		t := Table{
			ID:      id,
			Title:   title + ", " + patNames[ti] + ", 8x8",
			Columns: []string{"faults", "escape-vc", "spin", "drain"},
		}
		for fi, f := range faults {
			row := []string{fmt.Sprintf("%d", f)}
			for si := range runs {
				sum := 0.0
				for pi := 0; pi < patterns; pi++ {
					sum += m(ti, fi, pi, si)
				}
				row = append(row, f3(sum/float64(patterns)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables[ti] = t
	}
	return tables, nil
}

func fig10(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	return synthMatrix(ctx, sc, seed, "fig10", "Saturation throughput (packets/node/cycle)", 0.45, accepted)
}

func fig11(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	return synthMatrix(ctx, sc, seed, "fig11", "Low-load average packet latency (cycles)", 0.02, avgLatency)
}

func fig14(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	epochs := []int64{16, 256, 4096, 65536}
	warm, meas := int64(1000), int64(5000)
	if sc == Full {
		epochs = []int64{16, 64, 256, 1024, 4096, 16384, 65536}
		warm, meas = 10_000, 100_000
	}
	t := Table{
		ID:      "fig14",
		Title:   "DRAIN epoch sweep, uniform random, 8x8",
		Columns: []string{"epoch (cycles)", "low-load latency", "saturation throughput"},
	}
	// One job per (epoch, load point), all on one fault-free 8x8.
	p := sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: seed}
	g, mesh, tab, err := p.BuildTopology()
	if err != nil {
		return nil, err
	}
	p.RoutingTable = tab
	rates := []float64{0.02, 0.45}
	metrics := make([]float64, len(epochs)*len(rates))
	err = ForEachConfigContext(ctx, len(metrics), func(i int) error {
		ri := i % len(rates)
		ei := i / len(rates)
		run := p
		run.Epoch = epochs[ei]
		r, err := sim.BuildOn(g, mesh, run)
		if err != nil {
			return err
		}
		res, err := r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 64}, rates[ri], warm, meas)
		if err != nil {
			return err
		}
		if ri == 0 {
			metrics[i] = res.AvgLatency
		} else {
			metrics[i] = res.Accepted
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ei, e := range epochs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", e), f1(metrics[ei*len(rates)]), f3(metrics[ei*len(rates)+1]),
		})
	}
	t.Notes = append(t.Notes, "Paper Fig. 14: latency falls and throughput rises monotonically with epoch.")
	return []Table{t}, nil
}
