package experiments

import (
	"context"

	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
)

// A fault sweep is a figure's (fault count × fault pattern) grid of 8x8
// meshes, pattern pi of a count drawn from fault seed seed + pi·6151.
// Its cells are not all distinct topologies: Params.BuildGraph reads
// FaultSeed only when Faults > 0, so every pattern of a fault count of 0
// is the same fault-free mesh, and a simulation on it is the same
// simulation. The sweep therefore makes one unit of work per distinct
// topology and copies a fault-free result into every pattern's cell; the
// serial averaging over cells afterwards is what it always was.

// faultTopo is one distinct topology of a fault sweep.
type faultTopo struct {
	fi     int // index of its fault count in the sweep
	faults int // that fault count
	pi, pn int // the pattern cells [pi, pi+pn) of row fi it fills
}

// distinctTopologies enumerates the distinct topologies of the sweep
// faults × patterns in cell order. Every cell belongs to exactly one.
func distinctTopologies(faults []int, patterns int) []faultTopo {
	var topos []faultTopo
	for fi, f := range faults {
		if f == 0 {
			topos = append(topos, faultTopo{fi: fi, faults: f, pi: 0, pn: patterns})
			continue
		}
		for pi := 0; pi < patterns; pi++ {
			topos = append(topos, faultTopo{fi: fi, faults: f, pi: pi, pn: 1})
		}
	}
	return topos
}

// build constructs the topology and its routing table once, for all the
// runs of one unit of work. The returned Params carry the table; the
// caller sets Scheme per run and calls sim.BuildOn. The table lives for
// the unit only, so at most one per run slot is live.
func (ft faultTopo) build(seed uint64) (*topology.Graph, *topology.Mesh, sim.Params, error) {
	p := sim.Params{Width: 8, Height: 8, Faults: ft.faults, FaultSeed: seed + uint64(ft.pi)*6151, Seed: seed}
	g, mesh, tab, err := p.BuildTopology()
	if err != nil {
		return nil, nil, p, err
	}
	p.RoutingTable = tab
	return g, mesh, p, nil
}

// sweepRun is one simulation a fault sweep makes on every cell: a scheme
// under synthetic traffic at one injection rate, reduced to one metric.
type sweepRun struct {
	scheme sim.Scheme
	rate   float64
	metric func(sim.SyntheticResult) float64
}

func avgLatency(r sim.SyntheticResult) float64 { return r.AvgLatency }
func accepted(r sim.SyntheticResult) float64   { return r.Accepted }

// faultSweep simulates every run, warm then meas cycles, on every cell of
// faults × patterns under each traffic pattern: one unit of work per
// (traffic pattern, distinct topology), each run on its own runner. The
// result reads run ri's metric on traffic ti, fault row fi, pattern pi.
func faultSweep(ctx context.Context, seed uint64, faults []int, patterns int, warm, meas int64,
	pats []traffic.Pattern, runs []sweepRun) (func(ti, fi, pi, ri int) float64, error) {
	at := func(ti, fi, pi, ri int) int { return ((ti*len(faults)+fi)*patterns+pi)*len(runs) + ri }
	metrics := make([]float64, len(pats)*len(faults)*patterns*len(runs))
	topos := distinctTopologies(faults, patterns)
	err := ForEachConfigContext(ctx, len(pats)*len(topos), func(u int) error {
		ti, ft := u/len(topos), topos[u%len(topos)]
		g, mesh, p, err := ft.build(seed)
		if err != nil {
			return err
		}
		for ri, run := range runs {
			p.Scheme = run.scheme
			r, err := sim.BuildOn(g, mesh, p)
			if err != nil {
				return err
			}
			res, err := r.RunSyntheticContext(ctx, pats[ti], run.rate, warm, meas)
			if err != nil {
				return err
			}
			m := run.metric(res)
			for pi := ft.pi; pi < ft.pi+ft.pn; pi++ {
				metrics[at(ti, ft.fi, pi, ri)] = m
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return func(ti, fi, pi, ri int) float64 { return metrics[at(ti, fi, pi, ri)] }, nil
}
