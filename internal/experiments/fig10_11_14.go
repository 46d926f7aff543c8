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

// synthMatrix runs the three schemes across fault counts for one traffic
// pattern and rate, averaging over fault patterns.
func synthMatrix(ctx context.Context, sc Scale, seed uint64, patName string, rate float64, metric func(sim.SyntheticResult) float64) (Table, error) {
	faults := []int{0, 4, 12}
	warm, meas := int64(1000), int64(4000)
	patterns := 2
	if sc == Full {
		faults = []int{0, 1, 4, 8, 12}
		warm, meas = 10_000, 50_000
		patterns = 10
	}
	schemes := []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeSPIN, sim.SchemeDRAIN}
	t := Table{Columns: []string{"faults", "escape-vc", "spin", "drain"}}
	// One unit of work per (fault count, fault pattern): the topology and
	// its routing table are built once and live for the unit's three
	// scheme runs only, so at most one table per run slot is live.
	// Averaging happens serially afterwards in fixed index order.
	perScheme := patterns
	perFault := len(schemes) * perScheme
	metrics := make([]float64, len(faults)*perFault)
	pat, err := traffic.ByName(patName, 64, 8)
	if err != nil {
		return t, err
	}
	err = ForEachConfigContext(ctx, len(faults)*patterns, func(u int) error {
		pi := u % patterns
		fi := u / patterns
		p := sim.Params{Width: 8, Height: 8, Faults: faults[fi], FaultSeed: seed + uint64(pi)*6151, Seed: seed}
		g, mesh, tab, err := p.BuildTopology()
		if err != nil {
			return err
		}
		p.RoutingTable = tab
		for si, scheme := range schemes {
			p.Scheme = scheme
			r, err := sim.BuildOn(g, mesh, p)
			if err != nil {
				return err
			}
			res, err := r.RunSyntheticContext(ctx, pat, rate, warm, meas)
			if err != nil {
				return err
			}
			metrics[fi*perFault+si*perScheme+pi] = metric(res)
		}
		return nil
	})
	if err != nil {
		return t, err
	}
	for fi, f := range faults {
		row := []string{fmt.Sprintf("%d", f)}
		for si := range schemes {
			sum := 0.0
			for pi := 0; pi < patterns; pi++ {
				sum += metrics[fi*perFault+si*perScheme+pi]
			}
			row = append(row, f3(sum/float64(patterns)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func fig10(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	var tables []Table
	for _, pat := range []string{"uniform", "transpose"} {
		t, err := synthMatrix(ctx, sc, seed, pat, 0.45,
			func(r sim.SyntheticResult) float64 { return r.Accepted })
		if err != nil {
			return nil, err
		}
		t.ID = "fig10"
		t.Title = "Saturation throughput (packets/node/cycle), " + pat + ", 8x8"
		tables = append(tables, t)
	}
	return tables, nil
}

func fig11(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	var tables []Table
	for _, pat := range []string{"uniform", "transpose"} {
		t, err := synthMatrix(ctx, sc, seed, pat, 0.02,
			func(r sim.SyntheticResult) float64 { return r.AvgLatency })
		if err != nil {
			return nil, err
		}
		t.ID = "fig11"
		t.Title = "Low-load average packet latency (cycles), " + pat + ", 8x8"
		tables = append(tables, t)
	}
	return tables, nil
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
