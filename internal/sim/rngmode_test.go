package sim

import (
	"encoding/json"
	"math"
	"testing"

	"drain/internal/noc"
	"drain/internal/stats"
	"drain/internal/traffic"
)

// TestRNGModeDefaultsAndOverride pins the resolution order: zero means
// the process default (exact unless SetDefaultRNGMode changed it), and
// an explicit Params.RNGMode always wins over the process default.
func TestRNGModeDefaultsAndOverride(t *testing.T) {
	run := func(p Params) SyntheticResult {
		t.Helper()
		r, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 100, 400)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Epoch: 256, Seed: 7}
	if got := run(base).RNGMode; got != traffic.RNGExact {
		t.Fatalf("default mode = %v, want exact", got)
	}
	SetDefaultRNGMode(traffic.RNGCounter)
	defer SetDefaultRNGMode(traffic.RNGExact)
	if got := run(base).RNGMode; got != traffic.RNGCounter {
		t.Fatalf("mode with process default counter = %v", got)
	}
	exp := base
	exp.RNGMode = traffic.RNGExact
	// An explicit exact cannot be expressed as non-zero... RNGExact is the
	// zero value, so an explicit field set still resolves to the process
	// default; spelling "force exact under a counter default" requires
	// restoring the default. Document the asymmetry by asserting it.
	if got := run(exp).RNGMode; got != traffic.RNGCounter {
		t.Fatalf("zero-valued RNGMode should defer to process default, got %v", got)
	}
	SetDefaultRNGMode(traffic.RNGExact)
	cnt := base
	cnt.RNGMode = traffic.RNGCounter
	if got := run(cnt).RNGMode; got != traffic.RNGCounter {
		t.Fatalf("explicit counter under exact default = %v", got)
	}
}

// TestCounterModeByteIdenticalAcrossEngines: counter mode trades draw
// identity with exact mode for speed, but it is still a deterministic
// model — for a fixed seed the marshalled result bytes must be
// identical across the dense and event engines (FastForwarded
// excepted: the dense oracle never opens fast-forward windows, so that
// telemetry field is normalized).
func TestCounterModeByteIdenticalAcrossEngines(t *testing.T) {
	base := Params{
		Width: 4, Height: 4,
		Scheme: SchemeDRAIN, Epoch: 256,
		Seed:    21,
		RNGMode: traffic.RNGCounter,
	}
	run := func(p Params) SyntheticResult {
		t.Helper()
		r, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.10, 200, 2000)
		if err != nil {
			t.Fatal(err)
		}
		res.FastForwarded = 0
		return res
	}
	dense := base
	dense.Engine = noc.EngineDense
	want, err := json.Marshal(run(base))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(run(dense))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("counter-mode bytes diverge:\nevent: %s\ndense: %s", want, got)
	}
}

// TestRNGModeStatisticalEquivalence is the acceptance gate for counter
// mode: at a low and a mid load point, exact and counter runs must
// agree on the injection process (two-proportion z-test on created
// packets over node-cycles) and on the latency distribution
// (two-sample Kolmogorov–Smirnov on per-packet network latencies), at
// alpha = 0.001. Seeds are fixed, so these are fixed computations —
// a pass here is a pass everywhere.
func TestRNGModeStatisticalEquivalence(t *testing.T) {
	const (
		warmup  = 500
		measure = 6000
		nodes   = 16
	)
	for _, rate := range []float64{0.02, 0.10} {
		run := func(mode traffic.RNGMode) (SyntheticResult, []float64) {
			t.Helper()
			r, err := Build(Params{
				Width: 4, Height: 4,
				Scheme: SchemeDRAIN, Epoch: 1024,
				Seed:    7,
				RNGMode: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			var lats []float64
			r.Net.OnEject = func(p *noc.Packet) { lats = append(lats, float64(p.NetworkLatency())) }
			res, err := r.RunSynthetic(traffic.UniformRandom{N: nodes}, rate, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			if r.Net.OnEject == nil {
				t.Fatal("caller-installed OnEject hook was not restored")
			}
			return res, lats
		}
		exact, latE := run(traffic.RNGExact)
		counter, latC := run(traffic.RNGCounter)

		trials := int64(nodes) * (warmup + measure)
		z := stats.TwoProportionZ(exact.Counters.Created, trials, counter.Counters.Created, trials)
		if zcrit := stats.NormalQuantile(1 - 0.001/2); math.Abs(z) >= zcrit {
			t.Errorf("rate %.2f: created totals |z| = %.3f >= %.3f (exact %d, counter %d)",
				rate, math.Abs(z), zcrit, exact.Counters.Created, counter.Counters.Created)
		}
		d := stats.KSStatistic(latE, latC)
		crit := stats.KSCritical(len(latE), len(latC), 0.001)
		if d >= crit {
			t.Errorf("rate %.2f: latency KS D = %.4f >= %.4f (n=%d vs %d; means %.2f vs %.2f)",
				rate, d, crit, len(latE), len(latC), exact.AvgLatency, counter.AvgLatency)
		}
		// The modes are different models: same statistics, different
		// draws. Identical counters would mean the mode plumbing is not
		// actually switching anything.
		if exact.Counters.Created == counter.Counters.Created &&
			exact.AvgLatency == counter.AvgLatency {
			t.Errorf("rate %.2f: exact and counter results are identical — mode not applied?", rate)
		}
	}
}

// TestRNGModeCurveEquivalence compares full load sweeps: counter mode
// must reproduce exact mode's latency/throughput curve — low-load
// latency within a few percent, accepted throughput within tight
// bounds at every point, and the measured saturation throughput within
// 10% — the properties the paper's figures are built from.
func TestRNGModeCurveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep; skipped in -short")
	}
	rates := []float64{0.02, 0.10, 0.20, 0.30, 0.45}
	sweep := func(mode traffic.RNGMode) stats.Curve {
		t.Helper()
		c, err := LoadSweep(Params{
			Width: 4, Height: 4,
			Scheme: SchemeDRAIN, Epoch: 1024,
			Seed:    7,
			RNGMode: mode,
		}, "uniform", rates, 500, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	exact := sweep(traffic.RNGExact)
	counter := sweep(traffic.RNGCounter)
	for i := range exact {
		e, c := exact[i], counter[i]
		if relDiff(e.Accepted, c.Accepted) > 0.05 {
			t.Errorf("rate %.2f: accepted diverges: exact %.4f counter %.4f", e.Offered, e.Accepted, c.Accepted)
		}
		// Latency tolerance loosens near saturation where variance blows up.
		tol := 0.08
		if e.Offered >= 0.30 {
			tol = 0.25
		}
		if relDiff(e.AvgLat, c.AvgLat) > tol {
			t.Errorf("rate %.2f: avg latency diverges: exact %.2f counter %.2f", e.Offered, e.AvgLat, c.AvgLat)
		}
	}
	if se, sc := exact.Saturation(), counter.Saturation(); relDiff(se, sc) > 0.10 {
		t.Errorf("saturation throughput diverges: exact %.4f counter %.4f", se, sc)
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestCounterModeFastForwards: at fig11's low load the counter-mode
// run must actually cash in the idle fast-forward (nonzero skipped
// cycles reported) — the wall-clock win the mode exists for.
func TestCounterModeFastForwards(t *testing.T) {
	r, err := Build(Params{
		Width: 4, Height: 4,
		Scheme:  SchemeEscapeVC,
		Seed:    7,
		RNGMode: traffic.RNGCounter,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.005, 200, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForwarded == 0 {
		t.Fatal("counter-mode low-load run never fast-forwarded")
	}
	if res.RNGMode != traffic.RNGCounter {
		t.Fatalf("RNGMode = %v", res.RNGMode)
	}
}
