package experiments

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"drain/internal/sim"
	"drain/internal/traffic"
)

// drainAudit checks DRAIN's guarantees on a run through its probe (ROADMAP
// A10(b)): at every drain window's end the network's invariants hold, and
// after a full drain no escape VC of any virtual network holds a packet.
type drainAudit struct {
	t             *testing.T
	r             *sim.Runner
	windows, full int
}

// auditDrains sets a drainAudit as r's probe.
func auditDrains(t *testing.T, r *sim.Runner) *drainAudit {
	a := &drainAudit{t: t, r: r}
	r.Probe = &sim.Probe{OnEvent: a.check}
	return a
}

// check audits one event; a violation fails the test and stops the run.
func (a *drainAudit) check(e sim.Event) bool {
	if e.Kind != sim.EventDrainEnd {
		return false
	}
	a.windows++
	net := a.r.Net
	if err := net.CheckInvariants(); err != nil {
		a.t.Errorf("cycle %d, after drain window %d: %v", e.Cycle, a.windows, err)
		return true
	}
	if !e.Full {
		return false
	}
	a.full++
	for l := range net.Graph().NumLinks() {
		for vn := range net.Config().VNets {
			if p := net.EscapeOccupant(l, vn); p != nil {
				a.t.Errorf("cycle %d, after full drain %d: packet %d (%d→%d) is still in link %d's escape VC of VN %d",
					e.Cycle, a.full, p.ID, p.Src, p.Dst, l, vn)
				return true
			}
		}
	}
	return false
}

// TestDrainAudit audits DRAIN runs: quick fig14's epoch-16 point (8x8,
// uniform random at 0.45: a drain window every ~26 cycles at saturation),
// 4x4 runs at 0.3 with a full drain every fourth window, one of them
// with traffic on two virtual networks, and the reconfig figure's
// 2-link burst schedule (failures and recoveries between drains).
//
// The 4x4 sweep removes 0–4 links, fault seeds 1–6. Removing links leaves
// routers of degree 1 and concentrates escape packets on them, more than
// one ejection queue holds: a full drain empties the escape VCs only if
// the sinks run between its hops (7 of the 24 faulty runs fail when the
// hops run back to back in one cycle). On a fault-free mesh every router
// has two input links, so a packet a full drain moves away from its
// destination is back within one rotation less than the path; a router
// of degree 1 the path passes once, so a full drain one rotation short
// would leave a packet behind there.
func TestDrainAudit(t *testing.T) {
	t.Run("fig14-epoch16", func(t *testing.T) {
		r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Epoch: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := auditDrains(t, r)
		if _, err := r.RunSynthetic(traffic.UniformRandom{N: 64}, 0.45, 1000, 5000); err != nil {
			t.Fatal(err)
		}
		if a.windows < 100 {
			t.Errorf("%d drain windows audited, want ≥ 100", a.windows)
		}
	})
	for faults := range 5 {
		t.Run(fmt.Sprintf("4x4-faults%d-full-every-4", faults), func(t *testing.T) {
			seeds := uint64(6)
			if faults == 0 {
				seeds = 1 // the fault seed picks no link
			}
			for seed := uint64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					p := sim.Params{Width: 4, Height: 4, Faults: faults, FaultSeed: seed, Scheme: sim.SchemeDRAIN, Epoch: 128, FullDrainEvery: 4, Seed: 1}
					r, err := sim.Build(p)
					if err != nil {
						t.Fatal(err)
					}
					a := auditDrains(t, r)
					if _, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.3, 1000, 5000); err != nil {
						t.Fatal(err)
					}
					if a.full < 5 {
						t.Errorf("%d full drains audited, want ≥ 5", a.full)
					}
				})
			}
		})
	}
	t.Run("4x4-faults3-2vn", func(t *testing.T) {
		// RunSynthetic offers class 0 only, so this loop drives the runner
		// as Runner's loop does, with one generator per class and so
		// traffic on both virtual networks: a rotation that skipped VN > 0
		// would leave escape packets behind.
		r, err := sim.Build(sim.Params{Width: 4, Height: 4, Faults: 3, FaultSeed: 1, Scheme: sim.SchemeDRAIN, VNets: 2, Classes: 2, Epoch: 128, FullDrainEvery: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := &drainAudit{t: t, r: r}
		var gens []*traffic.Generator
		for class := range 2 {
			g := traffic.NewGenerator(traffic.UniformRandom{N: 16}, 0.15, uint64(class+1))
			g.CtrlFraction, g.Class = 1, class
			gens = append(gens, g)
		}
		var full int64 // full drains before the open window
		for range 6000 {
			if !r.Net.Frozen() {
				for _, g := range gens {
					g.Tick(r.Net)
				}
			}
			r.Net.Step()
			was := r.Drain.Draining()
			if err := r.TickScheme(); err != nil {
				t.Fatal(err)
			}
			r.Net.DiscardEjected()
			if st := r.Drain.Stats(); !was && r.Drain.Draining() {
				full = st.FullDrains
			} else if was && !r.Drain.Draining() && a.check(sim.Event{Kind: sim.EventDrainEnd, Cycle: r.Net.Cycle(), Full: st.FullDrains > full}) {
				break
			}
		}
		if a.full < 5 {
			t.Errorf("%d full drains audited, want ≥ 5", a.full)
		}
		for vn, flits := range r.Net.Counters.VNFlits {
			if flits == 0 {
				t.Errorf("no traffic on VN %d", vn)
			}
		}
	})
	t.Run("reconfig-k2", func(t *testing.T) {
		const seed, k = 1, 2
		p := sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Epoch: 1024, Seed: seed}
		g, mesh, err := p.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed^(uint64(k)*0x9e3779b9), 0xfa1175))
		if p.FaultSchedule, err = burstSchedule(g, k, reconfigFailAt, reconfigRestoreAt, rng); err != nil {
			t.Fatal(err)
		}
		r, err := sim.BuildOn(g, mesh, p)
		if err != nil {
			t.Fatal(err)
		}
		a := auditDrains(t, r)
		if _, err := r.RunSynthetic(traffic.UniformRandom{N: g.N()}, 0.10, 0, reconfigRestoreAt+reconfigWindow); err != nil {
			t.Fatal(err)
		}
		if a.windows < 4 || len(r.FaultReports) != 2 {
			t.Errorf("%d drain windows audited over %d reconfigurations, want ≥ 4 over the burst and its recovery", a.windows, len(r.FaultReports))
		}
	})
}
