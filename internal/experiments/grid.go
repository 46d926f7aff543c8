package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"drain/internal/routing"
	"drain/internal/sim"
	"drain/internal/stats"
	"drain/internal/topology"
	"drain/internal/traffic"
)

// A grid is a synthetic experiment as data: every run on every unit, and
// one result per (unit, run) pair. The pairs are ForEachConfigContext's
// work items, taken unit by unit. A unit's topology (graph, mesh and
// routing table) is built by the first of its runs to start, shared by
// all of them, each on a runner of its own, and dropped after the last
// one ends, so no more topologies are live than busy run slots.
type grid struct {
	units []gridUnit
	runs  []gridRun
	live  []unitState // per unit, during run
}

// gridUnit is one topology of a grid: graph builds its graph and mesh
// (nil for a graph that is not a mesh), and p is its runs' base Params.
type gridUnit struct {
	graph func() (*topology.Graph, *topology.Mesh, error)
	p     sim.Params
}

// gridRun is one simulation on every unit of a grid: the unit's Params
// with the run's scheme and epoch, under traffic pattern (by
// traffic.ByName, on the unit's graph) at rate for warm then meas cycles.
type gridRun struct {
	scheme     sim.Scheme
	epoch      int64
	pattern    string
	rate       float64
	warm, meas int64
}

type unitState struct {
	once  sync.Once
	err   error
	topo  atomic.Pointer[unitTopo] // set by the unit's first run, cleared after its last
	ended atomic.Int32             // the unit's runs that have ended
}

type unitTopo struct {
	g    *topology.Graph
	mesh *topology.Mesh
	tab  *routing.Table
}

// run simulates the grid and returns the result of run r on unit u.
func (gr *grid) run(ctx context.Context) (func(u, r int) sim.SyntheticResult, error) {
	gr.live = make([]unitState, len(gr.units))
	res := make([]sim.SyntheticResult, len(gr.units)*len(gr.runs))
	err := ForEachConfigContext(ctx, len(res), func(i int) error {
		unit, st, run := gr.units[i/len(gr.runs)], &gr.live[i/len(gr.runs)], gr.runs[i%len(gr.runs)]
		defer func() {
			if int(st.ended.Add(1)) == len(gr.runs) {
				st.topo.Store(nil)
			}
		}()
		st.once.Do(func() {
			var t unitTopo
			if t.g, t.mesh, st.err = unit.graph(); st.err == nil {
				t.tab, st.err = routing.NewTable(t.g, t.mesh)
				st.topo.Store(&t)
			}
		})
		if st.err != nil {
			return st.err
		}
		t, p := st.topo.Load(), unit.p
		p.Scheme, p.Epoch, p.RoutingTable = run.scheme, run.epoch, t.tab
		pat, err := traffic.ByName(run.pattern, t.g.N(), p.Width)
		if err != nil {
			return err
		}
		r, err := sim.BuildOn(t.g, t.mesh, p)
		if err != nil {
			return err
		}
		res[i], err = r.RunSyntheticContext(ctx, pat, run.rate, run.warm, run.meas)
		return err
	})
	if err != nil {
		return nil, err
	}
	return func(u, r int) sim.SyntheticResult { return res[u*len(gr.runs)+r] }, nil
}

// topoUnit is the topology p describes.
func topoUnit(p sim.Params) gridUnit { return gridUnit{p.BuildGraph, p} }

// faultUnit is the 8x8 mesh with faults links failed by fault pattern
// pi: the links fault seed seed + pi·6151 draws.
func faultUnit(seed uint64, faults, pi int) gridUnit {
	return topoUnit(sim.Params{Width: 8, Height: 8, Faults: faults, FaultSeed: seed + uint64(pi)*6151, Seed: seed})
}

// A faultSweep is the units of a figure's (fault count × fault pattern)
// grid of 8x8 meshes. Params.BuildGraph reads FaultSeed only when
// Faults > 0, so every pattern of a fault count of 0 is the same mesh,
// and a simulation on it the same simulation: the row is one unit, which
// each of its pattern cells reads.
type faultSweep struct {
	patterns int
	units    []gridUnit
	cells    []int // the unit of cell (fi, pi), at fi·patterns + pi
}

func newFaultSweep(seed uint64, faults []int, patterns int) faultSweep {
	s := faultSweep{patterns: patterns, cells: make([]int, len(faults)*patterns)}
	for i := range s.cells {
		if f, pi := faults[i/patterns], i%patterns; f > 0 || pi == 0 {
			s.units = append(s.units, faultUnit(seed, f, pi))
		}
		s.cells[i] = len(s.units) - 1
	}
	return s
}

// mean averages run r's latency and accepted rate over the pattern cells
// of fault row fi, summed in pattern order.
func (s faultSweep) mean(res func(u, r int) sim.SyntheticResult, fi, r int) (lat, acc float64) {
	for _, u := range s.cells[fi*s.patterns : (fi+1)*s.patterns] {
		x := res(u, r)
		lat += x.AvgLatency
		acc += x.Accepted
	}
	return lat / float64(s.patterns), acc / float64(s.patterns)
}

// LoadSweep measures a latency/throughput curve over one topology: a
// grid of one unit and one run per offered rate, each on ctx's run-slot
// budget with a runner of its own (a network is not reusable across
// rates). Points come back in rate order, the same for every budget.
func LoadSweep(ctx context.Context, p sim.Params, patternName string, rates []float64, warmup, measure int64) (stats.Curve, error) {
	gr := grid{units: []gridUnit{topoUnit(p)}}
	for _, rate := range rates {
		gr.runs = append(gr.runs, gridRun{scheme: p.Scheme, epoch: p.Epoch, pattern: patternName, rate: rate, warm: warmup, meas: measure})
	}
	res, err := gr.run(ctx)
	if err != nil {
		return nil, err
	}
	curve := make(stats.Curve, len(rates))
	for i, rate := range rates {
		x := res(0, i)
		curve[i] = stats.LoadPoint{Offered: rate, Accepted: x.Accepted, AvgLat: x.AvgLatency, P99Lat: x.P99Latency}
	}
	return curve, nil
}
