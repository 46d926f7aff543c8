// Package drain is a from-scratch reproduction of DRAIN — Deadlock
// Removal for Arbitrary Irregular Networks (HPCA 2020) — as a Go library:
// a cycle-accurate network-on-chip simulator, the DRAIN subactive
// deadlock-removal mechanism, its proactive (escape VCs) and reactive
// (SPIN) baselines, a MESI coherence substrate, synthetic and
// application workloads, a DSENT-style power/area model, and a harness
// that regenerates every table and figure of the paper's evaluation.
//
// This file is the public facade: the types and entry points an
// application needs to run simulations. The building blocks live in
// internal packages (see DESIGN.md for the inventory):
//
//   - internal/topology  — meshes, irregular/faulty graphs, chiplets
//   - internal/drainpath — the offline drain-path algorithm (§III-B)
//   - internal/noc       — the VC-router network simulator
//   - internal/core      — the DRAIN controller (§III-C)
//   - internal/spinrec   — SPIN recovery, also at the ideal baseline's timing
//   - internal/coherence — the MESI directory protocol
//   - internal/workload  — PARSEC / SPLASH-2 / Ligra profiles
//   - internal/power     — the analytical power and area model
//   - internal/experiments — one runner per paper figure/table
//
// # Quickstart
//
//	res, err := drain.Run(drain.Config{
//		Width: 8, Height: 8, Faults: 4,
//		Scheme:  drain.DRAIN,
//		Pattern: "uniform", Rate: 0.1,
//	})
//
// See examples/ for runnable programs.
package drain

import (
	"context"
	"fmt"

	"drain/internal/drainpath"
	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// Scheme selects the deadlock-freedom mechanism.
type Scheme = sim.Scheme

// Schemes (re-exported from the simulation driver).
const (
	// None runs unprotected fully adaptive routing (deadlocks possible).
	None = sim.SchemeNone
	// Ideal is fully adaptive routing with SPIN's recovery at ideal
	// timing: a check every 8 cycles, probes that cost no time.
	Ideal = sim.SchemeIdeal
	// EscapeVC is the proactive baseline (turn-restricted escape VCs).
	EscapeVC = sim.SchemeEscapeVC
	// SPIN is the reactive baseline (timeout detection + spins).
	SPIN = sim.SchemeSPIN
	// DRAIN is the paper's subactive mechanism (periodic drains).
	DRAIN = sim.SchemeDRAIN
	// UpDown routes everything with turn-restricted up*/down*.
	UpDown = sim.SchemeUpDown
)

// Config describes one simulation run.
type Config struct {
	// Width×Height mesh with Faults random bidirectional link failures
	// (connectivity preserved; FaultSeed picks the pattern).
	Width, Height int
	Faults        int
	FaultSeed     uint64

	Scheme Scheme

	// VNets and VCsPerVN override the scheme defaults when nonzero.
	VNets, VCsPerVN int

	// Epoch is DRAIN's drain period in cycles (default 64K).
	Epoch int64

	// Synthetic traffic: Pattern ("uniform", "transpose", "bitcomp",
	// "shuffle", "hotspot") at Rate packets/node/cycle for
	// Warmup+Measure cycles.
	Pattern string
	Rate    float64
	Warmup  int64
	Measure int64

	// Workload switches to a closed-loop coherence run of the named
	// application profile ("canneal", "pagerank", …) with OpsTarget
	// memory operations per core.
	Workload  string
	OpsTarget int64
	MaxCycles int64

	Seed uint64
}

// Result is the outcome of a Run.
type Result struct {
	// Synthetic metrics (Pattern runs).
	Accepted      float64
	AvgHops       float64
	MisroutesPerK float64

	// Shared metrics.
	AvgLatency float64
	P99Latency int64
	// Deadlocked: an unprotected run stopped on a confirmed deadlock
	// (sim.Stall.Deadlocked).
	Deadlocked bool

	// Application metrics (Workload runs).
	Completed bool
	Runtime   int64

	// Scheme activity.
	Drains int64
	Spins  int64
}

// Run executes one simulation described by cfg. It cannot be
// interrupted; long runs should use RunContext.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation described by cfg, aborting with
// ctx.Err() if ctx is cancelled mid-run (checked every
// noc.CancelCheckEvery simulated cycles).
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	p := sim.Params{
		Width: cfg.Width, Height: cfg.Height,
		Faults: cfg.Faults, FaultSeed: cfg.FaultSeed,
		Scheme: cfg.Scheme,
		VNets:  cfg.VNets, VCsPerVN: cfg.VCsPerVN,
		Epoch: cfg.Epoch,
		Seed:  cfg.Seed,
	}
	if cfg.Workload != "" {
		p.Classes = 3
		p.InjectCap = 16
	}
	r, err := sim.Build(p)
	if err != nil {
		return Result{}, err
	}
	if cfg.Workload != "" {
		prof, err := workload.Get(cfg.Workload)
		if err != nil {
			return Result{}, err
		}
		ops := cfg.OpsTarget
		if ops <= 0 {
			ops = 500
		}
		maxC := cfg.MaxCycles
		if maxC <= 0 {
			maxC = 5_000_000
		}
		res, err := r.RunAppContext(ctx, prof, ops, maxC)
		if err != nil {
			return Result{}, err
		}
		return Result{
			AvgLatency: res.AvgLatency,
			P99Latency: res.P99Latency,
			Deadlocked: res.Stall != nil && res.Stall.Deadlocked,
			Completed:  res.Completed,
			Runtime:    res.Runtime,
			Drains:     res.Drains,
			Spins:      res.Spins,
		}, nil
	}
	patName := cfg.Pattern
	if patName == "" {
		patName = "uniform"
	}
	pat, err := traffic.ByName(patName, r.Graph.N(), cfg.Width)
	if err != nil {
		return Result{}, err
	}
	warm, meas := cfg.Warmup, cfg.Measure
	if warm <= 0 {
		warm = 10_000
	}
	if meas <= 0 {
		meas = 50_000
	}
	rate := cfg.Rate
	if rate <= 0 {
		rate = 0.05
	}
	res, err := r.RunSyntheticContext(ctx, pat, rate, warm, meas)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		Accepted:      res.Accepted,
		AvgHops:       res.AvgHops,
		MisroutesPerK: res.MisroutesPerK,
		AvgLatency:    res.AvgLatency,
		P99Latency:    res.P99Latency,
		Deadlocked:    res.Stall != nil && res.Stall.Deadlocked,
	}
	if r.Drain != nil {
		out.Drains = r.Drain.Stats().Drains
	}
	if r.Spin != nil {
		out.Spins = r.Spin.Stats().Spins
	}
	return out, nil
}

// DrainPath holds the offline algorithm's output for a topology: the
// cyclic link sequence every drained packet follows.
type DrainPath struct {
	// Hops is the cyclic sequence of (from, to) router pairs; entry i+1
	// starts at the router entry i ends at, and the last wraps to the
	// first.
	Hops [][2]int
}

// ComputeDrainPath runs the offline drain-path algorithm (paper §III-B)
// on a Width×Height mesh with the given fault count and pattern seed,
// and returns the covering cycle.
func ComputeDrainPath(width, height, faults int, faultSeed uint64) (DrainPath, error) {
	g, _, err := sim.Params{Width: width, Height: height, Faults: faults, FaultSeed: faultSeed}.BuildGraph()
	if err != nil {
		return DrainPath{}, err
	}
	return pathFor(g)
}

// ComputeDrainPathOn runs the offline algorithm on an arbitrary
// connected topology given as bidirectional edges over n routers.
func ComputeDrainPathOn(n int, edges [][2]int) (DrainPath, error) {
	es := make([]topology.Edge, len(edges))
	for i, e := range edges {
		es[i] = topology.Edge{A: e[0], B: e[1]}
	}
	g, err := topology.New(n, es)
	if err != nil {
		return DrainPath{}, err
	}
	if !g.Connected() {
		return DrainPath{}, fmt.Errorf("drain: topology is disconnected")
	}
	return pathFor(g)
}

func pathFor(g *topology.Graph) (DrainPath, error) {
	p, err := drainpath.FindEulerian(g)
	if err != nil {
		return DrainPath{}, err
	}
	out := DrainPath{Hops: make([][2]int, 0, p.Len())}
	for _, l := range p.Seq {
		out.Hops = append(out.Hops, [2]int{l.From, l.To})
	}
	return out, nil
}

// Workloads returns the available application profile names.
func Workloads() []string { return workload.Names() }
