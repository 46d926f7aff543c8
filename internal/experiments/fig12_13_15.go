package experiments

import (
	"context"
	"fmt"

	"drain/internal/sim"
	"drain/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Ligra workloads: packet latency and runtime, normalized to escape VCs",
		Paper: "DRAIN and SPIN have similar average packet latency; DRAIN VN1-VC2 shows " +
			"higher packet latency (1/3 the VCs) but application runtime is unharmed.",
		Run: fig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "PARSEC/SPLASH-2 workloads: packet latency and runtime, normalized to escape VCs",
		Paper: "Same shape as Fig. 12 on the 4x4 system.",
		Run:   fig13,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "99th-percentile packet latency",
		Paper: "Despite 64K epochs, tail latency stays close to SPIN's; only the VN1-VC2 " +
			"configuration on memory-intensive workloads shows a modest p99 increase.",
		Run: fig15,
	})
}

// appConfig is one scheme/provisioning point in Figs. 12-13.
type appConfig struct {
	name   string
	scheme sim.Scheme
	vnets  int
	vcs    int
}

func appConfigs() []appConfig {
	return []appConfig{
		{"escape-vc (VN3,VC2)", sim.SchemeEscapeVC, 3, 2},
		{"spin (VN3,VC2)", sim.SchemeSPIN, 3, 2},
		{"drain (VN3,VC2)", sim.SchemeDRAIN, 3, 2},
		{"drain (VN1,VC6)", sim.SchemeDRAIN, 1, 6},
		{"drain (VN1,VC2)", sim.SchemeDRAIN, 1, 2},
	}
}

// runApp builds p and runs prof to ops memory operations per core; a run
// still short of them after maxCycles is an error, never a table cell.
func runApp(ctx context.Context, p sim.Params, prof workload.Profile, ops, maxCycles int64) (*sim.Runner, sim.AppResult, error) {
	r, err := sim.Build(p)
	if err != nil {
		return nil, sim.AppResult{}, err
	}
	res, err := r.RunAppContext(ctx, prof, ops, maxCycles)
	if err == nil && !res.Completed {
		err = fmt.Errorf("%v (VN%d,VC%d)/%s with %d faults did not complete in %d cycles",
			r.Params.Scheme, r.Params.VNets, r.Params.VCsPerVN, prof.Name, p.Faults, maxCycles)
	}
	return r, res, err
}

// appMatrix runs the Fig. 12/13 configuration grid for one suite.
func appMatrix(ctx context.Context, sc Scale, seed uint64, suite string, w, h int) ([]Table, error) {
	profiles := workload.Suite(suite)
	faultsList := []int{0, 8}
	ops := int64(200)
	maxCycles := int64(600_000)
	epoch := int64(8192)
	if sc == Quick {
		// Quick scale shrinks Ligra's 8x8 system to 4x4, trims the
		// workload list, and caps faults at 4: eight faults on a 4x4
		// leaves near-tree connectivity, far harsher relative damage
		// than the paper's 8 faults on an 8x8. Shapes are preserved.
		w, h = 4, 4
		faultsList = []int{0, 4}
		if len(profiles) > 3 {
			profiles = profiles[:3]
		}
	} else {
		ops, maxCycles, epoch = 1000, 5_000_000, 65_536
	}
	// One job per (fault count, workload, config). The normalization to the
	// escape-vc baseline (config 0) is a serial pass over the collected
	// results, so it is independent of worker count. runApp's "did not
	// complete" check fails the job; ForEachConfig returns the lowest-index
	// error, the one the serial loop would have hit first.
	cfgs := appConfigs()
	type appCell struct {
		lat     float64
		runtime float64
	}
	perProf := len(cfgs)
	perFault := len(profiles) * perProf
	cells := make([]appCell, len(faultsList)*perFault)
	err := ForEachConfigContext(ctx, len(cells), func(i int) error {
		ci := i % perProf
		wi := i / perProf % len(profiles)
		fi := i / perFault
		c, prof, faults := cfgs[ci], profiles[wi], faultsList[fi]
		_, res, err := runApp(ctx, sim.Params{
			Width: w, Height: h,
			Faults: faults, FaultSeed: seed + 31,
			Scheme: c.scheme, Classes: 3,
			VNets: c.vnets, VCsPerVN: c.vcs,
			Epoch: epoch, InjectCap: 16,
			Seed: seed,
		}, prof, ops, maxCycles)
		if err != nil {
			return err
		}
		cells[i] = appCell{lat: res.AvgLatency, runtime: float64(res.Runtime)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tables []Table
	for fi, faults := range faultsList {
		lat := Table{
			ID:      tableIDForSuite(suite),
			Title:   fmt.Sprintf("%s avg packet latency (normalized to escape-vc), %dx%d, %d faults", suite, w, h, faults),
			Columns: []string{"workload"},
		}
		run := Table{
			ID:      tableIDForSuite(suite),
			Title:   fmt.Sprintf("%s runtime (normalized to escape-vc), %dx%d, %d faults", suite, w, h, faults),
			Columns: []string{"workload"},
		}
		for _, c := range cfgs {
			lat.Columns = append(lat.Columns, c.name)
			run.Columns = append(run.Columns, c.name)
		}
		for wi, prof := range profiles {
			latRow := []string{prof.Name}
			runRow := []string{prof.Name}
			base := cells[fi*perFault+wi*perProf] // escape-vc baseline
			for ci := range cfgs {
				cell := cells[fi*perFault+wi*perProf+ci]
				latRow = append(latRow, f2(cell.lat/base.lat))
				runRow = append(runRow, f2(cell.runtime/base.runtime))
			}
			lat.Rows = append(lat.Rows, latRow)
			run.Rows = append(run.Rows, runRow)
		}
		if sc == Quick && suite == "ligra" {
			lat.Notes = append(lat.Notes, "Quick scale: 4x4 system and first 3 workloads (paper: 8x8, 6 workloads).")
		}
		tables = append(tables, lat, run)
	}
	return tables, nil
}

func tableIDForSuite(suite string) string {
	if suite == "ligra" {
		return "fig12"
	}
	return "fig13"
}

func fig12(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	return appMatrix(ctx, sc, seed, "ligra", 8, 8)
}

func fig13(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	parsec, err := appMatrix(ctx, sc, seed, "parsec", 4, 4)
	if err != nil {
		return nil, err
	}
	if sc == Quick {
		return parsec, nil
	}
	splash, err := appMatrix(ctx, sc, seed, "splash2", 4, 4)
	if err != nil {
		return nil, err
	}
	return append(parsec, splash...), nil
}

func fig15(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	profiles := []string{"pagerank", "canneal", "bfs"}
	w, h := 4, 4
	ops := int64(200)
	maxCycles := int64(600_000)
	epoch := int64(8192)
	if sc == Full {
		profiles = []string{"pagerank", "bfs", "components", "canneal", "fluidanimate", "radix"}
		ops, maxCycles, epoch = 1000, 5_000_000, 65_536
	}
	t := Table{
		ID:      "fig15",
		Title:   "p99 packet latency (cycles), 0 faults",
		Columns: []string{"workload"},
	}
	cfgs := appConfigs()
	for _, c := range cfgs {
		t.Columns = append(t.Columns, c.name)
	}
	// One job per (workload, config).
	p99 := make([]int64, len(profiles)*len(cfgs))
	err := ForEachConfigContext(ctx, len(p99), func(i int) error {
		ci := i % len(cfgs)
		wi := i / len(cfgs)
		c := cfgs[ci]
		_, res, err := runApp(ctx, sim.Params{
			Width: w, Height: h, Scheme: c.scheme, Classes: 3,
			VNets: c.vnets, VCsPerVN: c.vcs,
			Epoch: epoch, InjectCap: 16, Seed: seed,
		}, workload.MustGet(profiles[wi]), ops, maxCycles)
		if err != nil {
			return err
		}
		p99[i] = res.P99Latency
		return nil
	})
	if err != nil {
		return nil, err
	}
	for wi, name := range profiles {
		row := []string{name}
		for ci := range cfgs {
			row = append(row, fmt.Sprintf("%d", p99[wi*len(cfgs)+ci]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
