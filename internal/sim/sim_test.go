package sim

import (
	"testing"

	"drain/internal/noc"
	"drain/internal/topology"
	"drain/internal/traffic"
	"drain/internal/workload"
)

func TestBuildAllSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeNone, SchemeIdeal, SchemeEscapeVC, SchemeSPIN, SchemeDRAIN, SchemeUpDown} {
		r, err := Build(Params{Width: 4, Height: 4, Scheme: s, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		switch s {
		case SchemeDRAIN:
			if r.Drain == nil {
				t.Errorf("%v: no drain controller", s)
			}
			if r.Net.Config().VNets != 1 {
				t.Errorf("%v: VNets = %d, want 1", s, r.Net.Config().VNets)
			}
		case SchemeSPIN, SchemeIdeal:
			if r.Spin == nil {
				t.Errorf("%v: no spin controller", s)
			}
		}
	}
}

func TestVNetDefaults(t *testing.T) {
	// With 3 classes, the baselines get 3 VNs and DRAIN keeps 1.
	esc, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeEscapeVC, Classes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if esc.Net.Config().VNets != 3 {
		t.Errorf("escape VNets = %d, want 3", esc.Net.Config().VNets)
	}
	dr, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Classes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Net.Config().VNets != 1 {
		t.Errorf("drain VNets = %d, want 1", dr.Net.Config().VNets)
	}
}

// TestSpinTimeoutDefault: SPIN's detection timeout defaults in one
// place, Params' defaulting, to the paper's 1024 cycles.
func TestSpinTimeoutDefault(t *testing.T) {
	if got := (Params{}).Normalized().SpinTimeout; got != 1024 {
		t.Errorf("SpinTimeout = %d, want 1024", got)
	}
}

func TestFaultInjectionIsSeeded(t *testing.T) {
	a, err := Build(Params{Width: 8, Height: 8, Faults: 8, FaultSeed: 7, Scheme: SchemeDRAIN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Params{Width: 8, Height: 8, Faults: 8, FaultSeed: 7, Scheme: SchemeDRAIN, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatal("fault seeds not deterministic")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same FaultSeed produced different topologies")
		}
	}
	if len(ea) != 112-8 {
		t.Errorf("edges after 8 faults = %d, want 104", len(ea))
	}
}

func TestRunSyntheticLowLoad(t *testing.T) {
	for _, s := range []Scheme{SchemeEscapeVC, SchemeSPIN, SchemeDRAIN} {
		r, err := Build(Params{Width: 4, Height: 4, Scheme: s, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.02, 1000, 4000)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Accepted < 0.015 || res.Accepted > 0.025 {
			t.Errorf("%v: accepted %.4f at offered 0.02", s, res.Accepted)
		}
		if res.AvgLatency < 3 || res.AvgLatency > 60 {
			t.Errorf("%v: implausible low-load latency %.1f", s, res.AvgLatency)
		}
		if res.Stall != nil {
			t.Errorf("%v: stall at low load: %+v", s, *res.Stall)
		}
	}
}

func TestRunSyntheticDeterministic(t *testing.T) {
	run := func() SyntheticResult {
		r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 9, Epoch: 500})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.1, 500, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AvgLatency != b.AvgLatency || a.Accepted != b.Accepted || a.Counters.Hops != b.Counters.Hops {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSchemeNoneDetectsDeadlock(t *testing.T) {
	r, err := Build(Params{
		Width: 4, Height: 4, Scheme: SchemeNone, Seed: 5,
		VCsPerVN: 1, EjectCap: 2,
		DerouteAfter: -1, // strict minimal adaptive deadlocks reliably
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.45, 0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	// The run stops on the check that confirms the deadlock, the third
	// (1 536 cycles), and records a routing cycle there.
	if st := res.Stall; st == nil || !st.Deadlocked || st.Cycle != res.Cycles || res.Cycles != 1536 || st.Why.Kind != noc.RoutingCycle {
		t.Errorf("saturated unprotected network: stall %+v at run end %d; want a routing-cycle deadlock recorded at the end of the run, cycle 1536", st, res.Cycles)
	}

	// The app path of the same watch, on fig3's quick canneal cell with no
	// links removed (deadlocked in 3 of 3 runs): the run stops on the check
	// that confirms the deadlock, the fourth (2 048 cycles).
	app, err := Build(Params{
		Width: 4, Height: 4, Scheme: SchemeNone, Seed: 1,
		Classes: 3, VNets: 3, VCsPerVN: 1, InjectCap: 16, MSHRs: 8,
		DerouteAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := app.RunApp(workload.MustGet("canneal"), 0, 25_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := ares.Stall; ares.Completed || st == nil || !st.Deadlocked || st.Cycle != ares.Runtime || ares.Runtime != 2048 {
		t.Errorf("canneal on VN3 x 1 VC: completed %v, stall %+v, runtime %d; want a deadlock recorded at the end of the run, cycle 2048",
			ares.Completed, st, ares.Runtime)
	}
}

func TestRunAppAcrossSchemes(t *testing.T) {
	prof := workload.MustGet("blackscholes")
	for _, s := range []Scheme{SchemeEscapeVC, SchemeSPIN, SchemeDRAIN} {
		r, err := Build(Params{
			Width: 4, Height: 4, Scheme: s, Classes: 3, Seed: 4,
			Epoch: 2000, InjectCap: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunApp(prof, 200, 400000)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.Completed {
			t.Fatalf("%v: app did not complete (%d ops, %d in net)",
				s, res.Protocol.OpsCompleted, r.Net.InFlightPackets())
		}
		if res.Runtime <= 0 || res.AvgLatency <= 0 {
			t.Errorf("%v: degenerate result %+v", s, res)
		}
		if res.Stall != nil {
			t.Errorf("%v: a run that completed with no quiet window reports a stall: %+v", s, *res.Stall)
		}
	}
}

func TestBuildOnCustomTopology(t *testing.T) {
	g, err := topology.NewChiplet(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildOn(g, nil, Params{Scheme: SchemeDRAIN, Seed: 8, Epoch: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSynthetic(traffic.UniformRandom{N: g.N()}, 0.05, 500, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted <= 0 {
		t.Error("no traffic delivered on chiplet topology")
	}
}

func TestPortsPerRouter(t *testing.T) {
	r, err := Build(Params{Width: 8, Height: 8, Scheme: SchemeDRAIN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 8x8 mesh: average degree 3.5 → 4 ports + local = 4..5.
	if got := r.PortsPerRouter(); got < 4 || got > 5 {
		t.Errorf("ports per router = %d", got)
	}
}
