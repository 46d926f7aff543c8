package experiments

import (
	"context"

	"drain/internal/power"
	"drain/internal/sim"
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
	// Moderate load: restrictions hurt most when the network is loaded
	// but escape VCs are not yet saturated.
	s := newFaultSweep(seed, faults, patterns)
	gr := grid{units: s.units}
	for _, scheme := range []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeDRAIN} {
		gr.runs = append(gr.runs, gridRun{scheme: scheme, pattern: "uniform", rate: 0.10, warm: warm, meas: meas})
	}
	res, err := gr.run(ctx)
	if err != nil {
		return nil, err
	}
	var escLat, drainLat float64
	for _, u := range s.cells { // fault rows, each in pattern order
		escLat += res(u, 0).AvgLatency
		drainLat += res(u, 1).AvgLatency
	}
	n := float64(len(s.cells))
	latSaving := 1 - (drainLat/n)/(escLat/n)

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
