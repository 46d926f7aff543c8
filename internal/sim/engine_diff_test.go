package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"drain/internal/noc"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// TestEngineDifferential locks the engine seam at the simulation level:
// for every scheme, load point and fault pattern, a run on the event
// core must reproduce the dense stepper's SyntheticResult exactly —
// every counter, every latency float, bit for bit, as values and as the
// marshalled bytes the result cache and the goldens store — and a
// closed-loop coherence run its AppResult. This is the driver-level
// complement of noc.FuzzDenseVsEvent (which exercises the engines under
// adversarial topologies and rotation timing).
func TestEngineDifferential(t *testing.T) {
	compare := func(t *testing.T, p Params, pat traffic.Pattern, rate float64, warmup, measure int64) {
		run := func(eng noc.EngineKind) SyntheticResult {
			p.Engine = eng
			r, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunSynthetic(pat, rate, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		dense, event := run(noc.EngineDense), run(noc.EngineEvent)
		if !reflect.DeepEqual(dense, event) {
			t.Errorf("results diverge:\ndense: %+v\nevent: %+v", dense, event)
		}
		db, err := json.Marshal(dense)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := json.Marshal(event)
		if err != nil {
			t.Fatal(err)
		}
		if string(db) != string(eb) {
			t.Errorf("result bytes diverge:\ndense: %s\nevent: %s", db, eb)
		}
	}
	for _, scheme := range []Scheme{SchemeDRAIN, SchemeSPIN, SchemeEscapeVC, SchemeNone} {
		for _, rate := range []float64{0.02, 0.45} {
			for _, nf := range []int{0, 3} {
				t.Run(fmt.Sprintf("%s/rate%.2f/faults%d", scheme, rate, nf), func(t *testing.T) {
					compare(t, Params{
						Width: 4, Height: 4,
						Faults: nf, FaultSeed: 11,
						Scheme: scheme,
						Epoch:  256, SpinTimeout: 128,
						Seed: 7,
					}, traffic.UniformRandom{N: 16}, rate, 200, 2000)
				})
			}
		}
	}
	t.Run("drain/transpose5x5", func(t *testing.T) {
		compare(t, Params{Width: 5, Height: 5, Scheme: SchemeDRAIN, Epoch: 512, Seed: 21},
			traffic.Transpose{W: 5}, 0.20, 300, 2500)
	})
	// Near idle: most cycles have no work at all, the event core's
	// cheapest case.
	t.Run("escape-vc/rate0.005", func(t *testing.T) {
		compare(t, Params{Width: 4, Height: 4, Scheme: SchemeEscapeVC, Seed: 7},
			traffic.UniformRandom{N: 16}, 0.005, 200, 3000)
	})
	// The closed-loop path: coherence traffic through RunApp, whose
	// injection depends on what was delivered when.
	for _, p := range []Params{
		{Scheme: SchemeDRAIN, VNets: 1, VCsPerVN: 2},
		{Scheme: SchemeSPIN, VNets: 3, VCsPerVN: 2},
		{Scheme: SchemeEscapeVC, VNets: 3, VCsPerVN: 2},
	} {
		t.Run(fmt.Sprintf("%s/canneal", p.Scheme), func(t *testing.T) {
			p.Width, p.Height, p.Faults, p.FaultSeed = 4, 4, 2, 3
			p.Classes, p.InjectCap, p.Epoch, p.Seed = 3, 16, 1024, 42
			run := func(eng noc.EngineKind) AppResult {
				p.Engine = eng
				r, err := Build(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.RunApp(workload.MustGet("canneal"), 150, 200_000)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if dense, event := run(noc.EngineDense), run(noc.EngineEvent); !reflect.DeepEqual(dense, event) {
				t.Errorf("results diverge:\ndense: %+v\nevent: %+v", dense, event)
			}
		})
	}
}

// TestRunnerReuseAcrossRuns pins the driver's clock-space handling on a
// reused runner: the second run starts at a nonzero absolute network
// cycle while the loop counts its iterations from zero. Both engines
// must survive reuse and agree on the second run's results.
func TestRunnerReuseAcrossRuns(t *testing.T) {
	second := func(eng noc.EngineKind) SyntheticResult {
		r, err := Build(Params{
			Width: 4, Height: 4,
			Scheme: SchemeDRAIN, Epoch: 256,
			Seed:   3,
			Engine: eng,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 0, 500); err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 0, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := second(noc.EngineDense)
	event := second(noc.EngineEvent)
	if !reflect.DeepEqual(dense, event) {
		t.Errorf("reused-runner results diverge:\ndense: %+v\nevent: %+v", dense, event)
	}
}
