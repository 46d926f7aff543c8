package experiments

import (
	"context"
	"fmt"

	"drain/internal/sim"
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
// 8x8", of saturation throughput if sat, else of low-load latency.
func synthMatrix(ctx context.Context, sc Scale, seed uint64, id, title string, rate float64, sat bool) ([]Table, error) {
	faults := []int{0, 4, 12}
	warm, meas := int64(1000), int64(4000)
	patterns := 2
	if sc == Full {
		faults = []int{0, 1, 4, 8, 12}
		warm, meas = 10_000, 50_000
		patterns = 10
	}
	s := newFaultSweep(seed, faults, patterns)
	schemes := []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeSPIN, sim.SchemeDRAIN}
	patNames := []string{"uniform", "transpose"}
	gr := grid{units: s.units}
	for _, pat := range patNames {
		for _, scheme := range schemes {
			gr.runs = append(gr.runs, gridRun{scheme: scheme, pattern: pat, rate: rate, warm: warm, meas: meas})
		}
	}
	res, err := gr.run(ctx)
	if err != nil {
		return nil, err
	}
	tables := make([]Table, len(patNames))
	for ti, pat := range patNames {
		t := Table{
			ID:      id,
			Title:   title + ", " + pat + ", 8x8",
			Columns: []string{"faults", "escape-vc", "spin", "drain"},
		}
		for fi, f := range faults {
			row := []string{fmt.Sprintf("%d", f)}
			for si := range schemes {
				v, acc := s.mean(res, fi, ti*len(schemes)+si)
				if sat {
					v = acc
				}
				row = append(row, f3(v))
			}
			t.Rows = append(t.Rows, row)
		}
		tables[ti] = t
	}
	return tables, nil
}

func fig10(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	return synthMatrix(ctx, sc, seed, "fig10", "Saturation throughput (packets/node/cycle)", 0.45, true)
}

func fig11(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	return synthMatrix(ctx, sc, seed, "fig11", "Low-load average packet latency (cycles)", 0.02, false)
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
	// One unit, a fault-free 8x8, and one run per (epoch, load point).
	gr := grid{units: []gridUnit{topoUnit(sim.Params{Width: 8, Height: 8, Seed: seed})}}
	for _, e := range epochs {
		for _, rate := range []float64{0.02, 0.45} {
			gr.runs = append(gr.runs, gridRun{scheme: sim.SchemeDRAIN, epoch: e, pattern: "uniform", rate: rate, warm: warm, meas: meas})
		}
	}
	res, err := gr.run(ctx)
	if err != nil {
		return nil, err
	}
	for ei, e := range epochs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", e), f1(res(0, 2*ei).AvgLatency), f3(res(0, 2*ei+1).Accepted),
		})
	}
	t.Notes = append(t.Notes, "Paper Fig. 14: latency falls and throughput rises monotonically with epoch.")
	return []Table{t}, nil
}
