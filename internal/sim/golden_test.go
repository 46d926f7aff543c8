package sim

import (
	"testing"

	"drain/internal/traffic"
)

// TestGoldenCounters locks the simulator's cycle-level behavior: the
// counter totals below were captured from the pre-optimization seed
// implementation (before the routing candidate-table precomputation, the
// scratch-arena refactor, the ring-buffer queues and the active-router
// set) on a faulty 4x4 mesh. Any divergence means a hot-path change
// altered simulation semantics — arbitration order, RNG draw sequence, or
// routing candidates — rather than just its speed.
func TestGoldenCounters(t *testing.T) {
	type golden struct {
		scheme              Scheme
		epoch               int64
		created, injected   int64
		ejected, hops       int64
		bufWrites, bufReads int64
		xbarFlits, vcAllocs int64
		swAllocs, misroutes int64
		drainMoves, drains  int64
		frozenCyc           int64
	}
	cases := map[string]golden{
		"drain": {
			scheme: SchemeDRAIN, epoch: 256,
			created: 6083, injected: 6074, ejected: 6034, hops: 17908,
			bufWrites: 23950, bufReads: 23905, xbarFlits: 23920,
			vcAllocs: 17885, swAllocs: 23920, misroutes: 328,
			drainMoves: 32, drains: 7, frozenCyc: 70,
		},
		"escape": {
			scheme:  SchemeEscapeVC,
			created: 6290, injected: 6283, ejected: 6240, hops: 18319,
			bufWrites: 24602, bufReads: 24559, xbarFlits: 24574,
			vcAllocs: 18329, swAllocs: 24574, misroutes: 260,
		},
		"spin": {
			scheme:  SchemeSPIN,
			created: 6304, injected: 6303, ejected: 6269, hops: 18518,
			bufWrites: 24821, bufReads: 24787, xbarFlits: 24802,
			vcAllocs: 18530, swAllocs: 24802, misroutes: 278,
		},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			r, err := Build(Params{
				Width: 4, Height: 4, Faults: 3, FaultSeed: 5,
				Scheme: want.scheme, Epoch: want.epoch, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.20, 500, 1500)
			if err != nil {
				t.Fatal(err)
			}
			k := res.Counters
			got := golden{
				scheme: want.scheme, epoch: want.epoch,
				created: k.Created, injected: k.Injected, ejected: k.Ejected,
				hops: k.Hops, bufWrites: k.BufWrites, bufReads: k.BufReads,
				xbarFlits: k.XbarFlits, vcAllocs: k.VCAllocs,
				swAllocs: k.SWAllocs, misroutes: k.Misroutes,
				drainMoves: k.DrainMoves, drains: k.Drains,
				frozenCyc: k.FrozenCyc,
			}
			if got != want {
				t.Errorf("counters diverged from golden:\n got %+v\nwant %+v", got, want)
			}
			if k.LinkFlits != want.hops {
				t.Errorf("LinkFlits = %d, want %d (single-flit packets)", k.LinkFlits, want.hops)
			}
		})
	}
}
