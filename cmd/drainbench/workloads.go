package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// sizes fixes the work of one workload: cycle, operation and request
// counts, never a time. The defaults below are the benchmark at
// -seconds 10, sized on this 2-core box so the timed part of each
// workload takes 5–15 s; the smoke test passes smaller ones.
type sizes struct {
	setupReps  int   // times the set-up is repeated; setup_s is their median
	prime      int64 // simulated cycles before the first timed window
	window     int64 // simulated cycles per timed window
	ops        int   // timed operations: windows, rounds, jobs or requests
	opsTarget  int64 // coh_pagerank: memory operations per core
	sweepKeys  int   // serve_warm: primed sweep keys
	figureKeys int   // serve_warm: primed figure keys, the first of warmFigures
	lightPairs int   // serve_cold, traced: fig9 job pairs behind server.overhead_ms
	clients    int   // serve workloads: closed-loop client goroutines
}

// defaultSeconds is the -seconds value the default sizes are for.
const defaultSeconds = 10

// forRun scales the operation count by one common factor, seconds over
// defaultSeconds, and cuts it to a quarter for the traced pass (which
// runs every operation twice, reference and traced). At least two
// operations remain, one for each half of a traced pass.
func (s sizes) forRun(seconds float64, traced bool) sizes {
	ops := float64(s.ops) * seconds / defaultSeconds
	if traced {
		ops /= 4
	}
	s.ops = max(int(ops), 2)
	return s
}

// runConfig is one invocation: a workload at a seed, traced or not.
type runConfig struct {
	seed   uint64
	traced bool
	sz     sizes
}

// workload is one named set of inputs; BENCHMARK.json says why each was
// chosen. run executes it untraced (end-to-end metrics) or traced (per-
// layer metrics) as cfg says.
type workload struct {
	name  string
	sizes sizes
	run   func(w *workload, cfg runConfig, b *bench) error
}

// workloads lists the six workloads in reporting order.
var workloads = []*workload{
	{
		name:  "synth_low",
		sizes: sizes{setupReps: 9, prime: 100_000, window: 150_000, ops: 40},
		run: func(w *workload, cfg runConfig, b *bench) error {
			return runCycle(w, cycleSpec{rate: 0.02}, cfg, b)
		},
	},
	{
		name:  "synth_sat",
		sizes: sizes{setupReps: 3, prime: 20_000, window: 5_000, ops: 40},
		run: func(w *workload, cfg runConfig, b *bench) error {
			return runCycle(w, cycleSpec{rate: 0.45}, cfg, b)
		},
	},
	{
		name:  "coh_pagerank",
		sizes: sizes{setupReps: 25, ops: 16, opsTarget: 1000},
		run:   runCoherence,
	},
	{
		name:  "serve_cold",
		sizes: sizes{setupReps: 3, ops: 40, lightPairs: 200, clients: 1},
		run:   runServeCold,
	},
	{
		name:  "serve_warm",
		sizes: sizes{setupReps: 3, ops: 200_000, sweepKeys: 56, figureKeys: 8, clients: 2},
		run:   runServeWarm,
	},
	{
		name:  "reconfig_churn",
		sizes: sizes{setupReps: 9, prime: 10_000, window: 20_000, ops: 40},
		run: func(w *workload, cfg runConfig, b *bench) error {
			return runCycle(w, cycleSpec{rate: 0.10, epoch: 1024, faultEvery: 500}, cfg, b)
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// golden holds, for seed 1 at the default sizes, the digest of each
// workload's deterministic outputs: under the workload's name for the
// untraced pass, under name+"/traced" for the traced pass, which runs a
// quarter of the operations.
//
//go:embed golden.json
var goldenJSON []byte

func goldenDigests() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func goldenKey(name string, traced bool) string {
	if traced {
		return name + "/traced"
	}
	return name
}

// bench carries what every workload run shares: the checker, the
// digest, the tracer and the metric map being filled. units maps every
// metric BENCHMARK.json names to its unit there.
type bench struct {
	chk     checker
	dig     *digest
	tr      *tracer
	units   map[string]string
	metrics map[string]metric
	ops     int
	notes   []string
}

// note keeps a line for the run record: something the run did that its
// numbers do not show (a key or round drawn again).
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) set(name string, value float64, n int, stat string) {
	unit, ok := b.units[name]
	if !ok {
		panic("drainbench: metric " + name + " is not named in BENCHMARK.json")
	}
	b.metrics[name] = metric{Value: value, Unit: unit, N: n, Stat: stat}
}

// runWorkload executes one run and assembles its record. For seed 1 at
// the default sizes the digest must equal the golden one; for any other
// seed the traced pass's equality with the untraced sim.Run* call is the
// check that takes its place.
func runWorkload(spec *benchSpec, w *workload, cfg runConfig) (*record, []span, error) {
	b := &bench{dig: newDigest(), tr: newTracer(), units: spec.units(), metrics: map[string]metric{}}
	if cfg.traced {
		// Every per-layer metric is reported on every workload; a layer
		// the workload does not reach reports zero.
		for _, m := range spec.PerLayer {
			b.set(m.Name, 0, 0, "")
		}
	}
	if err := w.run(w, cfg, b); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sum := b.dig.sum()
	if cfg.seed == 1 && cfg.sz == w.sizes.forRun(defaultSeconds, cfg.traced) {
		golden, err := goldenDigests()
		if err != nil {
			return nil, nil, err
		}
		want := golden[goldenKey(w.name, cfg.traced)]
		b.chk.check(want == sum, "%s: digest %s differs from golden.json's %s", w.name, sum, want)
	}
	if cfg.traced {
		b.set("trace.spans", float64(len(b.tr.spans)), len(b.tr.spans), "count")
		if b.chk.failed > 0 {
			// A traced loop that is not the same program explains nothing:
			// withhold its numbers.
			for _, m := range spec.PerLayer {
				b.set(m.Name, 0, 0, "withheld")
			}
		}
	}
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		Correct:   b.chk.failed == 0,
		Attempted: b.chk.attempted, Failed: b.chk.failed,
		Ops: b.ops, Digest: sum, Failures: b.chk.msgs, Notes: b.notes,
		Metrics: b.metrics,
	}
	return rec, b.tr.spans, nil
}

// endToEnd fills in the metrics of an untraced run: set-up time, the
// median operation time, throughput and peak memory.
func (b *bench) endToEnd(setups []float64, run opsRun) {
	b.ops = len(run.ns)
	b.set("setup_s", median(setups), len(setups), "p50")
	us := toFloats(run.ok(nil), 1e-3)
	b.set("op_us_p50", median(us), len(us), "p50")
	perSecond, batches := run.throughput()
	b.set("ops_per_s", perSecond, batches, "p50")
	b.set("peak_rss_mb", peakRSSMB(), 1, "max")
}
