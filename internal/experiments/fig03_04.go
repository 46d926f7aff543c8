package experiments

import (
	"context"
	"fmt"

	"drain/internal/power"
	"drain/internal/sim"
	"drain/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Deadlock likelihood for PARSEC workloads as links are removed",
		Paper: "Unprotected fully adaptive routing: no deadlocks with 0 links removed; " +
			"deadlocks appear first for canneal (highest injection) around 4 removed links " +
			"and become more common as more links are removed. Extra VCs delay but do not " +
			"prevent deadlock.",
		Run: fig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Active vs. wasted power of virtual networks",
		Paper: "The vast majority of virtual-network power is wasted (static power burned " +
			"while no packet of that VN is in flight).",
		Run: fig4,
	})
}

// fig3Grid is fig3's run grid at one scale: one job per VC count,
// workload, links removed and run, numbered in that order (job i is run
// i%runs of cell i/runs). Every cell-run is an independent simulation,
// so the whole figure fans out at once.
type fig3Grid struct {
	w, h      int
	vcs       []int
	profs     []workload.Profile
	links     []int
	runs      int
	maxCycles int64
}

func newFig3Grid(sc Scale) fig3Grid {
	g := fig3Grid{w: 4, h: 4, vcs: []int{1, 4}, profs: workload.Parsec5(), links: []int{0, 2, 4, 6, 8}, runs: 3, maxCycles: 25_000}
	if sc == Full {
		g.w, g.h, g.links, g.runs, g.maxCycles = 8, 8, []int{0, 2, 4, 6, 8, 10, 12}, 5, 200_000
	}
	return g
}

func (g fig3Grid) jobs() int { return len(g.vcs) * len(g.profs) * len(g.links) * g.runs }

// params returns job i's parameters and workload.
func (g fig3Grid) params(seed uint64, i int) (sim.Params, workload.Profile) {
	run, cell := uint64(i%g.runs), i/g.runs
	li, wi, vi := cell%len(g.links), cell/len(g.links)%len(g.profs), cell/len(g.links)/len(g.profs)
	return sim.Params{
		Width: g.w, Height: g.h,
		Faults: g.links[li], FaultSeed: seed + run*7919,
		Scheme:    sim.SchemeNone,
		Classes:   3,
		VNets:     3,
		VCsPerVN:  g.vcs[vi],
		InjectCap: 16,
		MSHRs:     8, // raises pressure on the small quick system (see DESIGN.md)
		// Strictly minimal adaptive: the deadlock-prone
		// substrate whose failures this figure measures.
		DerouteAfter: -1,
		Seed:         seed + run*104729,
	}, g.profs[wi]
}

func fig3(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	g := newFig3Grid(sc)
	deadlocked := make([]bool, g.jobs())
	err := ForEachConfigContext(ctx, len(deadlocked), func(i int) error {
		p, prof := g.params(seed, i)
		r, err := sim.Build(p)
		if err != nil {
			return err
		}
		res, err := r.RunAppContext(ctx, prof, 0, g.maxCycles)
		deadlocked[i] = res.Stall != nil && res.Stall.Deadlocked
		return err
	})
	if err != nil {
		return nil, err
	}
	var tables []Table
	for vi, vcs := range g.vcs {
		t := Table{
			ID:      "fig3",
			Title:   fmt.Sprintf("%% of runs deadlocked, %d VC/VNet, %dx%d mesh, unprotected adaptive routing", vcs, g.w, g.h),
			Columns: []string{"workload"},
		}
		for _, lr := range g.links {
			t.Columns = append(t.Columns, fmt.Sprintf("%d links", lr))
		}
		for wi, prof := range g.profs {
			row := []string{prof.Name}
			for li := range g.links {
				cell := (vi*len(g.profs)+wi)*len(g.links) + li
				count := 0
				for _, d := range deadlocked[cell*g.runs : (cell+1)*g.runs] {
					if d {
						count++
					}
				}
				row = append(row, pct(float64(count)/float64(g.runs)))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d runs per cell, %d-cycle horizon, scale=%v.", g.runs, g.maxCycles, sc))
		tables = append(tables, t)
	}
	return tables, nil
}

func fig4(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	w, h := 4, 4
	ops := int64(300)
	maxCycles := int64(400_000)
	if sc == Full {
		ops, maxCycles = 2000, 4_000_000
	}
	t := Table{
		ID:      "fig4",
		Title:   "Per-virtual-network power on the escape-VC baseline (3 VNets)",
		Columns: []string{"workload", "active (mW)", "wasted (mW)", "wasted share"},
	}
	// The five app runs share the run-slot budget; each writes only its
	// own index, and the rows are assembled in order afterwards.
	params := power.DefaultParams()
	profs := workload.Parsec5()
	act, waste := make([]float64, len(profs)), make([]float64, len(profs))
	err := ForEachConfigContext(ctx, len(profs), func(i int) error {
		r, res, err := runApp(ctx, sim.Params{
			Width: w, Height: h, Scheme: sim.SchemeEscapeVC,
			Classes: 3, InjectCap: 16, Seed: seed,
		}, profs[i], ops, maxCycles)
		if err != nil {
			return err
		}
		rc := power.RouterConfig{
			Ports: r.PortsPerRouter(), VNets: 3, VCsPerVN: 2,
			FlitBits: 128, BufDepth: 5, Scheme: power.SchemeEscapeVC,
		}
		for _, v := range power.PerVNPower(res.Counters, rc, params, res.Runtime, r.Graph.N(), 1.0) {
			act[i] += v.ActiveMW
			waste[i] += v.WastedMW
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, prof := range profs {
		t.Rows = append(t.Rows, []string{
			prof.Name, f2(act[i]), f2(waste[i]), pct(waste[i] / (act[i] + waste[i])),
		})
	}
	t.Notes = append(t.Notes, "Paper expectation: wasted share dominates for every workload.")
	return []Table{t}, nil
}
