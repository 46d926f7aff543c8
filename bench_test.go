package drain

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, driving the same experiment runners the
// cmd/experiments tool uses (Quick scale), plus ablation benchmarks for
// the design choices DESIGN.md calls out. Custom metrics are reported
// through b.ReportMetric so `go test -bench` output carries the
// reproduced numbers alongside wall-clock cost.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/experiments -fig all -scale full   # paper-scale sweep

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"drain/internal/drainpath"
	"drain/internal/experiments"
	"drain/internal/noc"
	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// runExperiment executes a registered experiment once per benchmark
// iteration and fails the benchmark if it errors or produces no data.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(context.Background(), experiments.Quick, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		if rows == 0 {
			b.Fatal("experiment produced no rows")
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

func BenchmarkFig03DeadlockLikelihood(b *testing.B) { runExperiment(b, "fig3") }
func BenchmarkFig04VNPower(b *testing.B)            { runExperiment(b, "fig4") }
func BenchmarkFig05UpDownGap(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig06DrainPath(b *testing.B)          { runExperiment(b, "fig6") }
func BenchmarkFig08Walkthrough(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig09AreaPower(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkFig10Saturation(b *testing.B)         { runExperiment(b, "fig10") }
func BenchmarkFig11LowLoadLatency(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig12Ligra(b *testing.B)              { runExperiment(b, "fig12") }
func BenchmarkFig13Parsec(b *testing.B)             { runExperiment(b, "fig13") }
func BenchmarkFig14Epoch(b *testing.B)              { runExperiment(b, "fig14") }
func BenchmarkFig15TailLatency(b *testing.B)        { runExperiment(b, "fig15") }
func BenchmarkHeadline(b *testing.B)                { runExperiment(b, "headline") }
func BenchmarkDiscussionTopologies(b *testing.B)    { runExperiment(b, "disc") }

// BenchmarkFig10SaturationParallel is BenchmarkFig10Saturation with the
// experiment harness fanning its independent runs across GOMAXPROCS
// workers (the cmd/experiments -parallel default). Comparing the two
// shows the sweep-level speedup on multi-core hosts; the result tables
// are identical either way.
func BenchmarkFig10SaturationParallel(b *testing.B) {
	prev := experiments.Parallelism()
	experiments.SetParallelism(runtime.GOMAXPROCS(0))
	defer experiments.SetParallelism(prev)
	runExperiment(b, "fig10")
}

// stepLoads are the three load points of the paper's evaluation regime
// BenchmarkStep times — the fig11 low-load point (0.02
// packets/node/cycle), a mid-load point, and the fig10 saturation point
// (0.45) — each with the ceilings TestStepWindowAllocs holds one window's
// heap allocations to, in count and in bytes.
var stepLoads = []struct {
	name      string
	rate      float64
	maxAllocs uint64
	maxBytes  uint64
}{
	{"LowLoad", 0.02, 70, 24 << 10},
	{"MidLoad", 0.10, 50, 12 << 10},
	{"Saturation", 0.45, 45, 12 << 10},
}

// stepWindow is the measured RunSynthetic window of BenchmarkStep, in cycles.
const stepWindow = 5000

// primedStepRunner builds the 8x8 DRAIN configuration on the given engine
// and runs it to steady state, so the windows that follow measure the
// loop, not the fill transient.
func primedStepRunner(tb testing.TB, rate float64, eng noc.EngineKind) (*sim.Runner, traffic.Pattern) {
	tb.Helper()
	r, err := sim.Build(sim.Params{
		Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1, Engine: eng,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pat := traffic.UniformRandom{N: 64}
	if _, err := r.RunSynthetic(pat, rate, 0, 2000); err != nil {
		tb.Fatal(err)
	}
	return r, pat
}

// BenchmarkStep measures the steady-state cycle loop at the stepLoads
// points on the 8x8 DRAIN configuration, once per engine. The event/dense
// pairs are byte-identical runs (FuzzDenseVsEvent enforces it), so the
// ratio is pure engine speedup.
func BenchmarkStep(b *testing.B) {
	for _, load := range stepLoads {
		for _, eng := range []noc.EngineKind{noc.EngineEvent, noc.EngineDense} {
			b.Run(load.name+"/"+eng.String(), func(b *testing.B) {
				r, pat := primedStepRunner(b, load.rate, eng)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.RunSynthetic(pat, load.rate, 0, stepWindow); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / stepWindow
				b.ReportMetric(ns, "ns/cycle")
				if ns > 0 {
					b.ReportMetric(1e9/ns, "cycles/sec")
				}
			})
		}
	}
}

// BenchmarkStepRNG measures what the counter-based RNG mode buys at
// the three standard load points plus an idle-dominated one, on the
// event engine only (the mode is engine-independent;
// TestCounterModeByteIdenticalAcrossEngines pins that). The
// rng=exact/rng=counter pairs are same-binary interleaved runs, so the
// ratio is pure generator speedup. The win is concentrated at
// IdleLoad, where the network is empty most cycles and fast-forward
// windows actually open: counter mode jumps them for free while exact
// mode must replay 64 rate draws per skipped cycle. From LowLoad
// (fig11's 0.02) upward the network always holds in-flight packets —
// no window ever opens — and exact mode's one-integer-compare rate
// draw is already a small fraction of the cycle, so the pair
// converges; see DESIGN.md §"Counter-based RNG mode" for the dividing
// line.
func BenchmarkStepRNG(b *testing.B) {
	loads := []struct {
		name string
		rate float64
	}{
		{"IdleLoad", 0.001},
		{"LowLoad", 0.02},
		{"MidLoad", 0.10},
		{"Saturation", 0.45},
	}
	for _, load := range loads {
		for _, mode := range []traffic.RNGMode{traffic.RNGExact, traffic.RNGCounter} {
			b.Run(load.name+"/rng="+mode.String(), func(b *testing.B) {
				r, err := sim.Build(sim.Params{
					Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1,
					Engine: noc.EngineEvent, RNGMode: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				pat := traffic.UniformRandom{N: 64}
				if _, err := r.RunSynthetic(pat, load.rate, 0, 2000); err != nil {
					b.Fatal(err)
				}
				const window = 5000
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.RunSynthetic(pat, load.rate, 0, window); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / window
				b.ReportMetric(ns, "ns/cycle")
				if ns > 0 {
					b.ReportMetric(1e9/ns, "cycles/sec")
				}
			})
		}
	}
}

// BenchmarkFig11RNG runs the fig11 low-load latency experiment — the
// workload the counter mode exists for — end to end in both RNG modes.
// This is the ISSUE acceptance measurement: same binary, interleaved
// runs, whole-experiment wall clock (build + warmup + measure), so the
// ns/op ratio is the speedup a user of cmd/experiments -rng-mode
// counter actually sees. Result tables differ between the modes (the
// draw sequences differ); TestRNGModeStatisticalEquivalence bounds how
// much.
func BenchmarkFig11RNG(b *testing.B) {
	for _, mode := range []traffic.RNGMode{traffic.RNGExact, traffic.RNGCounter} {
		b.Run("rng="+mode.String(), func(b *testing.B) {
			sim.SetDefaultRNGMode(mode)
			defer sim.SetDefaultRNGMode(traffic.RNGExact)
			runExperiment(b, "fig11")
		})
	}
}

// BenchmarkSimulatorCycles measures raw simulator speed: router-cycles
// per second on a loaded 8x8 DRAIN network (substrate cost, Table II
// configuration).
func BenchmarkSimulatorCycles(b *testing.B) {
	r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen := traffic.NewGenerator(traffic.UniformRandom{N: 64}, 0.10, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Net.Frozen() {
			gen.Tick(r.Net)
		}
		r.Net.Step()
		if err := r.TickScheme(); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < 64; n++ {
			for p := r.Net.PopEjected(n, 0); p != nil; p = r.Net.PopEjected(n, 0) {
			}
		}
	}
	b.ReportMetric(64, "router-cycles/op")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationDrainHops: the paper's footnote 3 claims one forced
// hop per drain window always beats multiple hops.
func BenchmarkAblationDrainHops(b *testing.B) {
	for _, hops := range []int{1, 2, 4} {
		b.Run("hops="+strconv.Itoa(hops), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Build(sim.Params{
					Width: 8, Height: 8, Scheme: sim.SchemeDRAIN,
					Epoch: 512, DrainHops: hops, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, 0.10, 1000, 4000)
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgLatency
			}
			b.ReportMetric(lat, "avg-latency")
		})
	}
}

// BenchmarkAblationPathAlgorithms compares the offline constructions:
// Hierholzer vs the paper's early-terminating search.
func BenchmarkAblationPathAlgorithms(b *testing.B) {
	g := topology.MustMesh(8, 8).Graph
	b.Run("hierholzer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := drainpath.FindEulerian(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := drainpath.FindCoveringCycle(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStickyEscape compares DRAIN with the classic sticky
// escape-VC discipline against the default non-sticky escape.
func BenchmarkAblationStickyEscape(b *testing.B) {
	for _, sticky := range []bool{false, true} {
		name := "nonsticky"
		if sticky {
			name = "sticky"
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Build(sim.Params{
					Width: 8, Height: 8, Scheme: sim.SchemeDRAIN,
					Epoch: 4096, StickyEscape: sticky, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, 0.45, 1000, 4000)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accepted
			}
			b.ReportMetric(acc, "saturation")
		})
	}
}

// BenchmarkAblationDeroute compares the strictly minimal substrate (the
// paper's deadlock-prone baseline) with stall-triggered derouting.
func BenchmarkAblationDeroute(b *testing.B) {
	for _, da := range []int{-1, 8} {
		name := "strict"
		if da > 0 {
			name = "deroute" + strconv.Itoa(da)
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Build(sim.Params{
					Width: 8, Height: 8, Scheme: sim.SchemeDRAIN,
					DerouteAfter: da, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, 0.45, 1000, 4000)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Accepted
			}
			b.ReportMetric(acc, "saturation")
		})
	}
}

// BenchmarkAblationFullDrain measures the cost of frequent full drains
// (the livelock guard) on packet latency.
func BenchmarkAblationFullDrain(b *testing.B) {
	for _, every := range []int{4, 64, 1024} {
		b.Run("every="+strconv.Itoa(every), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Build(sim.Params{
					Width: 8, Height: 8, Scheme: sim.SchemeDRAIN,
					Epoch: 512, FullDrainEvery: every, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, 0.10, 1000, 4000)
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgLatency
			}
			b.ReportMetric(lat, "avg-latency")
		})
	}
}

// BenchmarkCoherenceWorkload measures end-to-end coherent-system
// simulation speed for the default DRAIN configuration.
func BenchmarkCoherenceWorkload(b *testing.B) {
	prof := workload.MustGet("bodytrack")
	for i := 0; i < b.N; i++ {
		r, err := sim.Build(sim.Params{
			Width: 4, Height: 4, Scheme: sim.SchemeDRAIN, Classes: 3,
			Epoch: 4096, InjectCap: 16, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.RunApp(prof, 200, 600_000)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("workload did not complete")
		}
		b.ReportMetric(float64(res.Runtime), "cycles")
	}
}
