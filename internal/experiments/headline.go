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
	// Moderate load: restrictions hurt most when the network is loaded
	// but escape VCs are not yet saturated.
	lat, err := faultSweep(ctx, seed, faults, patterns, warm, meas, []traffic.Pattern{traffic.UniformRandom{N: 64}},
		[]sweepRun{{sim.SchemeEscapeVC, 0.10, avgLatency}, {sim.SchemeDRAIN, 0.10, avgLatency}})
	if err != nil {
		return nil, err
	}
	var escLat, drainLat float64
	n := 0
	for fi := range faults {
		for pi := 0; pi < patterns; pi++ {
			escLat += lat(0, fi, pi, 0)
			drainLat += lat(0, fi, pi, 1)
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
