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

func fig3(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	w, h := 4, 4
	linksRemoved := []int{0, 2, 4, 6, 8}
	runs := 3
	maxCycles := int64(25_000)
	mshrs := 8 // raises pressure on the small quick system (see DESIGN.md)
	if sc == Full {
		w, h = 8, 8
		linksRemoved = []int{0, 2, 4, 6, 8, 10, 12}
		runs = 5
		maxCycles = 200_000
		mshrs = 8
	}
	// One job per (VC count, workload, fault count, run): every cell-run
	// is an independent simulation, so the whole figure fans out at once.
	vcsList := []int{1, 4}
	profs := workload.Parsec5()
	perCell := runs
	perLR := len(linksRemoved) * perCell
	perProf := len(profs) * perLR
	deadlocked := make([]bool, len(vcsList)*perProf)
	err := ForEachConfigContext(ctx, len(deadlocked), func(i int) error {
		run := i % perCell
		li := i / perCell % len(linksRemoved)
		wi := i / perLR % len(profs)
		vi := i / perProf
		r, err := sim.Build(sim.Params{
			Width: w, Height: h,
			Faults: linksRemoved[li], FaultSeed: seed + uint64(run)*7919,
			Scheme:    sim.SchemeNone,
			Classes:   3,
			VNets:     3,
			VCsPerVN:  vcsList[vi],
			InjectCap: 16,
			MSHRs:     mshrs,
			// Strictly minimal adaptive: the deadlock-prone
			// substrate whose failures this figure measures.
			DerouteAfter: -1,
			Seed:         seed + uint64(run)*104729,
		})
		if err != nil {
			return err
		}
		res, err := r.RunAppContext(ctx, profs[wi], 0, maxCycles)
		if err != nil {
			return err
		}
		deadlocked[i] = res.Stall != nil && res.Stall.Deadlocked
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tables []Table
	for vi, vcs := range vcsList {
		t := Table{
			ID:      "fig3",
			Title:   fmt.Sprintf("%% of runs deadlocked, %d VC/VNet, %dx%d mesh, unprotected adaptive routing", vcs, w, h),
			Columns: []string{"workload"},
		}
		for _, lr := range linksRemoved {
			t.Columns = append(t.Columns, fmt.Sprintf("%d links", lr))
		}
		for wi, prof := range profs {
			row := []string{prof.Name}
			for li := range linksRemoved {
				count := 0
				for run := 0; run < runs; run++ {
					if deadlocked[vi*perProf+wi*perLR+li*perCell+run] {
						count++
					}
				}
				row = append(row, pct(float64(count)/float64(runs)))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("%d runs per cell, %d-cycle horizon, scale=%v.", runs, maxCycles, sc))
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
