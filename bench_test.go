package drain

// Go benchmarks: BenchmarkStep (the cycle loop at three load points,
// CI's smoke), the ablations EXPERIMENTS.md cites for the design
// choices DESIGN.md §7 calls out, and the coherence layer's construction
// and one of its workloads. Custom
// metrics are reported through b.ReportMetric. The figures themselves
// are not benchmarked here: `make results-check` regenerates and
// byte-diffs every table, and the measurement of record is
// `make bench-pair` (cmd/drainbench).

import (
	"strconv"
	"testing"

	"drain/internal/coherence"
	"drain/internal/drainpath"
	"drain/internal/noc"
	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
	"drain/internal/workload"
)

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

// --- Ablations (DESIGN.md §7) ---

// BenchmarkFaultEvent times the online-fault path alone: an idle 8x8
// DRAIN runner whose schedule fails a link one cycle and recovers it the
// next, so one iteration is one failure (a graph, a table's distances and
// a drain path over the survivors; with no traffic nothing reads a
// candidate kind, so none is built) plus one restore (the
// construction-time graph, table and path reinstalled).
func BenchmarkFaultEvent(b *testing.B) {
	sched := make([]sim.FaultEvent, 2*b.N)
	for i := range sched {
		sched[i] = sim.FaultEvent{Cycle: int64(i + 1), A: 27, B: 28, Fail: i%2 == 0}
	}
	r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1, FaultSchedule: sched})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, 0, 0, int64(len(sched))+1); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := r.Net.Counters.Reconfigs; got != int64(len(sched)) {
		b.Fatalf("%d reconfigurations for %d events", got, len(sched))
	}
}

// BenchmarkValidateFaultSchedule times the admission check a schedule
// pays at canonicalization and again at BuildOn: 1 700 alternating events
// on the 8x8 mesh (reconfig_churn's full-size schedule is 419).
func BenchmarkValidateFaultSchedule(b *testing.B) {
	g := topology.MustMesh(8, 8).Graph
	sched := alternatingSchedule(g, 1700)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.ValidateFaultSchedule(g, sched); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sched)), "ns/event")
}

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

// BenchmarkCoherenceNew times what every coherence run pays before its
// first cycle beyond sim.Build: coherence.New on the 8x8 pagerank system
// (coh_pagerank's DRAIN leg), which fills each L1 from its core's
// 128-line private range (8 192 lines) and installs no directory record:
// a home derives a prewarmed line's record at its first reference.
func BenchmarkCoherenceNew(b *testing.B) {
	r, err := sim.Build(sim.Params{
		Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Classes: coherence.NumClasses,
		VCsPerVN: 6, Epoch: 8192, InjectCap: 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	prof := workload.MustGet("pagerank")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coherence.New(r.Net, coherence.Config{Gen: prof, OpsTarget: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
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
