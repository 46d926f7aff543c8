package experiments

import (
	"context"

	"drain/internal/sim"
	"drain/internal/stats"
	"drain/internal/traffic"
)

// LoadSweep measures a latency/throughput curve over one topology: the
// graph and routing table are built once, and each offered rate is one
// unit on ctx's run-slot budget with a runner of its own (a network is
// not reusable across rates). Points come back in rate order, the same
// for every budget.
func LoadSweep(ctx context.Context, p sim.Params, patternName string, rates []float64, warmup, measure int64) (stats.Curve, error) {
	g, mesh, tab, err := p.BuildTopology()
	if err != nil {
		return nil, err
	}
	p.RoutingTable = tab
	pat, err := traffic.ByName(patternName, g.N(), p.Width)
	if err != nil {
		return nil, err
	}
	curve := make(stats.Curve, len(rates))
	err = ForEachConfigContext(ctx, len(rates), func(i int) error {
		r, err := sim.BuildOn(g, mesh, p)
		if err != nil {
			return err
		}
		res, err := r.RunSyntheticContext(ctx, pat, rates[i], warmup, measure)
		if err != nil {
			return err
		}
		curve[i] = stats.LoadPoint{Offered: rates[i], Accepted: res.Accepted, AvgLat: res.AvgLatency, P99Lat: res.P99Latency}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curve, nil
}
