package experiments

import (
	"context"

	"drain/internal/power"
	"drain/internal/sim"
	"drain/internal/traffic"
)

func init() {
	register(Experiment{
		ID:    "headline",
		Title: "Abstract headline numbers",
		Paper: "DRAIN saves 26.73% packet latency vs. proactive schemes in the presence " +
			"of faults, and 77.6% power vs. reactive schemes.",
		Run: headline,
	})
}

func headline(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	// Latency saving vs. the proactive baseline (escape VCs) under
	// faults: synthetic low-load latency averaged across fault counts
	// and patterns (the proactive penalty is the turn-restricted escape
	// routing's non-minimal paths).
	faults := []int{4, 8, 12}
	patterns := 2
	warm, meas := int64(1000), int64(4000)
	if sc == Full {
		patterns = 10
		warm, meas = 10_000, 50_000
	}
	// One unit of work per (fault count, pattern) topology, built once for
	// its two scheme runs; the averages are summed serially afterwards in
	// fixed index order so the result is identical for every worker count.
	schemes := []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeDRAIN}
	perPattern := len(schemes)
	perFault := patterns * perPattern
	lats := make([]float64, len(faults)*perFault)
	topos := distinctTopologies(faults, patterns)
	err := ForEachConfigContext(ctx, len(topos), func(u int) error {
		ft := topos[u]
		g, mesh, p, err := ft.build(seed)
		if err != nil {
			return err
		}
		for si, scheme := range schemes {
			p.Scheme = scheme
			r, err := sim.BuildOn(g, mesh, p)
			if err != nil {
				return err
			}
			// Moderate load: restrictions hurt most when the network
			// is loaded but escape VCs are not yet saturated.
			res, err := r.RunSyntheticContext(ctx, traffic.UniformRandom{N: 64}, 0.10, warm, meas)
			if err != nil {
				return err
			}
			for pi := ft.pi; pi < ft.pi+ft.pn; pi++ {
				lats[ft.fi*perFault+pi*perPattern+si] = res.AvgLatency
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var escLat, drainLat float64
	n := 0
	for fi := range faults {
		for pi := 0; pi < patterns; pi++ {
			escLat += lats[fi*perFault+pi*perPattern]
			drainLat += lats[fi*perFault+pi*perPattern+1]
			n++
		}
	}
	latSaving := 1 - (drainLat/float64(n))/(escLat/float64(n))

	// Power saving vs. the reactive baseline (SPIN): total router static
	// power of the performance-comparison configurations (SPIN: 3 VNets
	// to be protocol-safe; DRAIN: 1 VNet).
	params := power.DefaultParams()
	spinRC := power.RouterConfig{Ports: 5, VNets: 3, VCsPerVN: 2, FlitBits: 128, BufDepth: 5, Scheme: power.SchemeSPIN}
	drainRC := power.RouterConfig{Ports: 5, VNets: 1, VCsPerVN: 2, FlitBits: 128, BufDepth: 5, Scheme: power.SchemeDRAIN}
	powSaving := 1 - power.StaticPower(drainRC, params).Total()/power.StaticPower(spinRC, params).Total()

	t := Table{
		ID:      "headline",
		Title:   "Reproduced headline claims",
		Columns: []string{"claim", "paper", "measured"},
		Rows: [][]string{
			{"packet latency saving vs proactive (faulty networks)", "26.73%", pct(latSaving)},
			{"router power saving vs reactive", "77.6%", pct(powSaving)},
		},
	}
	return []Table{t}, nil
}
