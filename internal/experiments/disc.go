package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"drain/internal/sim"
	"drain/internal/topology"
)

func init() {
	register(Experiment{
		ID:    "disc",
		Title: "§VI discussion: DRAIN on chiplet and random topologies",
		Paper: "DRAIN allows arbitrary vendor topologies to be composed and random " +
			"low-radix topologies to route fully adaptively without escape-VC " +
			"routing restrictions or extra buffering.",
		Run: disc,
	})
}

// disc runs DRAIN and the up*/down*-escape baseline on the discussion
// section's topology classes: a chiplet composition and low-radix random
// regular graphs.
func disc(ctx context.Context, sc Scale, seed uint64) ([]Table, error) {
	warm, meas := int64(1000), int64(5000)
	trials := 2
	if sc == Full {
		warm, meas = 10_000, 50_000
		trials = 5
	}
	cases := []struct {
		name string
		make func(trial int) (*topology.Graph, error)
	}{
		{"chiplet 4x(2x2)+interposer", func(int) (*topology.Graph, error) {
			return topology.NewChiplet(4, 2, 2)
		}},
		{"random 3-regular, 16 routers", func(trial int) (*topology.Graph, error) {
			rng := rand.New(rand.NewPCG(seed+uint64(trial)*7919, 0x0dec))
			return topology.NewRandomRegular(16, 3, rng)
		}},
		{"random 4-regular, 32 routers", func(trial int) (*topology.Graph, error) {
			rng := rand.New(rand.NewPCG(seed+uint64(trial)*104729, 0x0dec))
			return topology.NewRandomRegular(32, 4, rng)
		}},
	}
	t := Table{
		ID:      "disc",
		Title:   "Low-load latency and saturation on irregular-by-design topologies",
		Columns: []string{"topology", "scheme", "low-load latency", "saturation throughput"},
	}
	// One unit per (topology case, trial), drawn from the trial-keyed
	// RNG; on it, each scheme at a low and a saturating rate.
	var units []gridUnit
	for _, c := range cases {
		for trial := range trials {
			// No mesh: the escape-vc scheme falls back to up*/down* escape
			// routing automatically.
			units = append(units, gridUnit{func() (*topology.Graph, *topology.Mesh, error) {
				g, err := c.make(trial)
				return g, nil, err
			}, sim.Params{Seed: seed + uint64(trial)}})
		}
	}
	schemes := []sim.Scheme{sim.SchemeEscapeVC, sim.SchemeDRAIN}
	gr := grid{units: units}
	for _, scheme := range schemes {
		for _, rate := range []float64{0.02, 0.45} {
			gr.runs = append(gr.runs, gridRun{scheme: scheme, epoch: 4096, pattern: "uniform", rate: rate, warm: warm, meas: meas})
		}
	}
	res, err := gr.run(ctx)
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		for si, s := range schemes {
			var lat, sat float64
			for trial := range trials {
				lat += res(ci*trials+trial, 2*si).AvgLatency
				sat += res(ci*trials+trial, 2*si+1).Accepted
			}
			t.Rows = append(t.Rows, []string{
				c.name, s.String(),
				f1(lat / float64(trials)), f3(sat / float64(trials)),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Averaged over %d topology instances; DRAIN routes fully adaptively on "+
			"every topology while the baseline's escape VC is restricted to up*/down*.", trials))
	return []Table{t}, nil
}
