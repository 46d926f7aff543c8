package experiments

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"drain/internal/noc"
	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
)

func TestDistinctTopologies(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   []int
		patterns int
		distinct int
	}{
		{"quick fig10/fig11", []int{0, 4, 12}, 2, 5},
		{"full fig10/fig11/fig5", []int{0, 1, 4, 8, 12}, 10, 41},
		{"quick fig5", []int{0, 4, 8, 12}, 1, 4},
		{"no zero (headline)", []int{4, 8, 12}, 2, 6},
		{"only zero", []int{0}, 10, 1},
		{"zero not first", []int{4, 0}, 3, 4},
		{"empty sweep", nil, 10, 0},
	} {
		s := newFaultSweep(1, tc.faults, tc.patterns)
		if len(s.units) != tc.distinct {
			t.Errorf("%s: %d distinct topologies, want %d of %d cells", tc.name, len(s.units), tc.distinct, len(tc.faults)*tc.patterns)
		}
		// Every cell belongs to exactly one unit, and the topology the
		// unit builds is the one the cell names: same fault count, and
		// the cell's own pattern's fault seed unless the count is 0.
		cells := make([]int, len(s.units))
		for fi, f := range tc.faults {
			for pi := range tc.patterns {
				u := s.cells[fi*tc.patterns+pi]
				if u < 0 || u >= len(s.units) {
					t.Fatalf("%s: cell (fault row %d, pattern %d) belongs to no unit", tc.name, fi, pi)
				}
				cells[u]++
				if p := s.units[u].p; p.Faults != f {
					t.Errorf("%s: unit %d carries fault count %d, row %d has %d", tc.name, u, p.Faults, fi, f)
				} else if f > 0 && p.FaultSeed != 1+uint64(pi)*6151 {
					t.Errorf("%s: unit %d draws fault seed %d for pattern %d", tc.name, u, p.FaultSeed, pi)
				}
			}
		}
		// A faulty unit is one cell; the fault-free one is its whole
		// row, so no second unit can repeat it.
		for u, n := range cells {
			want := 1
			if s.units[u].p.Faults == 0 {
				want = tc.patterns
			}
			if n != want {
				t.Errorf("%s: unit %d (%d faults) fills %d cells, want %d", tc.name, u, s.units[u].p.Faults, n, want)
			}
		}
	}
}

// TestFaultFreePatternsAreOneTopology pins the fact the fault sweep's
// units rest on: at a fault count of 0 the fault seed is never read, so
// every pattern index builds the same mesh, while at any other count two
// pattern indices draw different links.
func TestFaultFreePatternsAreOneTopology(t *testing.T) {
	build := func(faults, pi int) []topology.Edge {
		g, _, err := faultUnit(1, faults, pi).graph()
		if err != nil {
			t.Fatal(err)
		}
		return g.Edges()
	}
	if !reflect.DeepEqual(build(0, 0), build(0, 7)) {
		t.Error("fault-free meshes differ between pattern indices")
	}
	if reflect.DeepEqual(build(4, 0), build(4, 1)) {
		t.Error("4-fault patterns 0 and 1 drew the same links")
	}
}

// TestQuickFig11SimulatesThirtyNetworks counts the work of one quick
// fig11 job on the job's own sim.Totals: 2 traffic patterns × 5 distinct
// topologies × 3 schemes = 30 runs of 5 000 cycles, whatever the run-slot
// budget. A repeat of the fault-free runs per fault pattern — 36 runs —
// fails here, not only in a benchmark. The totals and the budget travel
// in the context, so other tests may simulate beside it.
func TestQuickFig11SimulatesThirtyNetworks(t *testing.T) {
	t.Parallel()
	e, _ := ByID("fig11")
	for _, budget := range []int{1, 2} {
		slots := NewSlots(budget)
		slots.TryAcquire() // the caller's own
		var tot sim.Totals
		if _, err := e.Run(WithSlots(sim.WithTotals(context.Background(), &tot), slots), Quick, 1); err != nil {
			t.Fatal(err)
		}
		if runs, cycles := tot.Runs.Load(), tot.Cycles.Load(); runs != 30 || cycles != 150_000 {
			t.Errorf("budget %d: quick fig11 made %d runs of %d cycles in all, want 30 and 150000", budget, runs, cycles)
		}
	}
}

// TestQuickFig5IdealNeverRecovers rebuilds quick fig5's 8 ideal runs (4
// distinct topologies × rates 0.02 and 0.45, 1 000 + 4 000 cycles, seed
// 1): the controller checks every 8 cycles, 625 times a run, and never
// detects a blocked cycle. So the ideal's check interval and recovery
// timing move no byte of the committed fig5 tables.
func TestQuickFig5IdealNeverRecovers(t *testing.T) {
	for _, unit := range newFaultSweep(1, []int{0, 4, 8, 12}, 1).units {
		g, mesh, err := unit.graph()
		if err != nil {
			t.Fatal(err)
		}
		p := unit.p
		p.Scheme = sim.SchemeIdeal
		for _, rate := range []float64{0.02, 0.45} {
			r, err := sim.BuildOn(g, mesh, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, rate, 1000, 4000); err != nil {
				t.Fatal(err)
			}
			if st := r.Spin.Stats(); st.Checks != 625 || st.Detections != 0 {
				t.Errorf("%d faults, rate %v: %+v, want 625 checks and no detection", p.Faults, rate, st)
			}
		}
	}
}

// TestGridBuildsEachUnitOnce: on budgets of 1, 2 and 4 run slots, each
// unit's topology is built once, by the first of its runs, no more units
// are live at a build than the budget has slots (exactly one on one
// slot), and every unit is dropped after its last run.
func TestGridBuildsEachUnitOnce(t *testing.T) {
	for _, budget := range []int{1, 2, 4} {
		gr := grid{}
		builds := make([]atomic.Int32, 5)
		var mu sync.Mutex
		peak := 0
		for u := range builds {
			unit := topoUnit(sim.Params{Width: 4, Height: 4, Faults: u % 2, FaultSeed: uint64(u), Seed: 1})
			graph := unit.graph
			unit.graph = func() (*topology.Graph, *topology.Mesh, error) {
				builds[u].Add(1)
				live := 1 // this unit, whose build has not returned yet
				for v := range gr.live {
					if gr.live[v].topo.Load() != nil {
						live++
					}
				}
				mu.Lock()
				peak = max(peak, live)
				mu.Unlock()
				return graph()
			}
			gr.units = append(gr.units, unit)
		}
		for _, scheme := range []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeDRAIN} {
			for _, rate := range []float64{0.02, 0.3} {
				gr.runs = append(gr.runs, gridRun{scheme: scheme, pattern: "uniform", rate: rate, warm: 100, meas: 400})
			}
		}
		slots := NewSlots(budget)
		slots.TryAcquire()
		if _, err := gr.run(WithSlots(context.Background(), slots)); err != nil {
			t.Fatal(err)
		}
		for u := range builds {
			if n := builds[u].Load(); n != 1 {
				t.Errorf("budget %d: unit %d built %d times, want once", budget, u, n)
			}
			if gr.live[u].topo.Load() != nil {
				t.Errorf("budget %d: unit %d still live after the grid ran", budget, u)
			}
		}
		if peak > budget || budget == 1 && peak != 1 {
			t.Errorf("budget %d: %d units live at once", budget, peak)
		}
	}
}

// TestRecoveryRegime runs the paper's central comparison where deadlocks
// form (ROADMAP A16(a)): strictly minimal routing (DerouteAfter -1) on
// the 8x8 mesh of fault pattern 0 with 4 and 12 faults, uniform traffic
// at 0.45, 2 VCs per VN, 1 000 + 19 000 cycles, seed 1. Unprotected, the
// network stops on a routing cycle; the ideal and SPIN recover by
// spinning, DRAIN by its drain windows, and DRAIN accepts less at a
// 1 024-cycle epoch than at 256. How many of DRAIN's windows open on a
// deadlock is not pinned: that needs the recovery events of ROADMAP A17.
func TestRecoveryRegime(t *testing.T) {
	t.Parallel()
	gr := grid{}
	faults := []int{4, 12}
	for _, f := range faults {
		gr.units = append(gr.units, topoUnit(sim.Params{Width: 8, Height: 8, Faults: f, FaultSeed: 1, Seed: 1, VCsPerVN: 2, DerouteAfter: -1}))
	}
	for _, run := range []struct {
		scheme sim.Scheme
		epoch  int64
	}{{sim.SchemeNone, 0}, {sim.SchemeIdeal, 0}, {sim.SchemeSPIN, 0}, {sim.SchemeDRAIN, 256}, {sim.SchemeDRAIN, 1024}} {
		gr.runs = append(gr.runs, gridRun{scheme: run.scheme, epoch: run.epoch, pattern: "uniform", rate: 0.45, warm: 1000, meas: 19_000})
	}
	slots := NewSlots(2)
	slots.TryAcquire()
	res, err := gr.run(WithSlots(context.Background(), slots))
	if err != nil {
		t.Fatal(err)
	}
	for u, f := range faults {
		none, ideal, spin, drain256, drain1024 := res(u, 0), res(u, 1), res(u, 2), res(u, 3), res(u, 4)
		if st := none.Stall; st == nil || !st.Deadlocked || st.Why.Kind != noc.RoutingCycle {
			t.Errorf("%d faults: unprotected run stalls with %+v, want a confirmed routing cycle", f, st)
		}
		if ideal.Counters.SpinMoves == 0 || spin.Counters.SpinMoves == 0 {
			t.Errorf("%d faults: spin moves ideal %d, SPIN %d, want both > 0", f, ideal.Counters.SpinMoves, spin.Counters.SpinMoves)
		}
		if d256, d1024 := drain256.Counters.Drains, drain1024.Counters.Drains; d256 != 75 || d1024 != 19 {
			t.Errorf("%d faults: DRAIN opened %d windows at epoch 256 and %d at 1024, want 75 and 19", f, d256, d1024)
		}
		if drain1024.Accepted >= drain256.Accepted {
			t.Errorf("%d faults: DRAIN accepts %.3f at epoch 1024, %.3f at 256; want less at 1024", f, drain1024.Accepted, drain256.Accepted)
		}
	}
}
