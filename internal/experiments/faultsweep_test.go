package experiments

import (
	"context"
	"reflect"
	"testing"

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
		topos := distinctTopologies(tc.faults, tc.patterns)
		if len(topos) != tc.distinct {
			t.Errorf("%s: %d distinct topologies, want %d of %d cells", tc.name, len(topos), tc.distinct, len(tc.faults)*tc.patterns)
		}
		// Every cell belongs to exactly one topology, and the topology
		// built for it is the one the cell names: same fault count, and
		// the cell's own pattern index unless the count is 0.
		owners := make([]int, len(tc.faults)*tc.patterns)
		for _, ft := range topos {
			if ft.faults != tc.faults[ft.fi] {
				t.Errorf("%s: topology %+v carries fault count %d, row %d has %d", tc.name, ft, ft.faults, ft.fi, tc.faults[ft.fi])
			}
			// A faulty topology is one cell; the fault-free one is its
			// whole row, so no second unit can repeat it.
			want := 1
			if ft.faults == 0 {
				want = tc.patterns
			}
			if ft.pn != want {
				t.Errorf("%s: topology %+v fills %d cells, want %d", tc.name, ft, ft.pn, want)
			}
			for pi := ft.pi; pi < ft.pi+ft.pn; pi++ {
				owners[ft.fi*tc.patterns+pi]++
			}
		}
		for cell, n := range owners {
			if n != 1 {
				t.Errorf("%s: cell (fault row %d, pattern %d) belongs to %d topologies, want 1", tc.name, cell/tc.patterns, cell%tc.patterns, n)
			}
		}
	}
}

// TestFaultFreePatternsAreOneTopology pins the fact the enumeration
// rests on: at a fault count of 0 the fault seed is never read, so every
// pattern index builds the same mesh, while at any other count two
// pattern indices draw different links.
func TestFaultFreePatternsAreOneTopology(t *testing.T) {
	build := func(faults, pi int) []topology.Edge {
		g, _, _, err := faultTopo{faults: faults, pi: pi, pn: 1}.build(1)
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
	for _, ft := range distinctTopologies([]int{0, 4, 8, 12}, 1) {
		g, mesh, p, err := ft.build(1)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Errorf("%d faults, rate %v: %+v, want 625 checks and no detection", ft.faults, rate, st)
			}
		}
	}
}
