package power

import (
	"testing"

	"drain/internal/noc"
)

// The three Fig. 9 router configurations on a mesh (5 ports).
func fig9Configs() (escape, spin, drainCfg RouterConfig) {
	escape = RouterConfig{Ports: 5, VNets: 3, VCsPerVN: 2, FlitBits: 128, BufDepth: 5, Scheme: SchemeEscapeVC}
	spin = RouterConfig{Ports: 5, VNets: 3, VCsPerVN: 1, FlitBits: 128, BufDepth: 5, Scheme: SchemeSPIN}
	drainCfg = RouterConfig{Ports: 5, VNets: 1, VCsPerVN: 1, FlitBits: 128, BufDepth: 5, Scheme: SchemeDRAIN}
	return
}

func TestFig9AreaRatios(t *testing.T) {
	p := DefaultParams()
	e, s, d := fig9Configs()
	ea, sa, da := Area(e, p).Total(), Area(s, p).Total(), Area(d, p).Total()
	// Paper: DRAIN yields ~72% area reduction vs escape VCs.
	ratio := da / ea
	if ratio < 0.18 || ratio > 0.38 {
		t.Errorf("DRAIN/escape area ratio = %.3f, want ≈0.28 (72%% reduction)", ratio)
	}
	if !(da < sa && sa < ea) {
		t.Errorf("area ordering violated: drain=%.0f spin=%.0f escape=%.0f", da, sa, ea)
	}
	// SPIN's control overhead: ~15% over an equivalent plain router.
	plain := s
	plain.Scheme = SchemeNone
	over := (sa - Area(plain, p).Total()) / Area(plain, p).Total()
	if over < 0.02 || over > 0.16 {
		t.Errorf("SPIN control overhead = %.3f of router, want noticeable but ≤15%%", over)
	}
}

func TestFig9StaticPowerRatios(t *testing.T) {
	p := DefaultParams()
	e, _, d := fig9Configs()
	ep, dp := StaticPower(e, p).Total(), StaticPower(d, p).Total()
	// Paper: ~77% router power reduction vs the baselines.
	ratio := dp / ep
	if ratio < 0.15 || ratio > 0.35 {
		t.Errorf("DRAIN/escape power ratio = %.3f, want ≈0.23 (77%% reduction)", ratio)
	}
}

func TestBuffersDominate(t *testing.T) {
	// The paper's premise (Fig. 4 discussion): VC buffers are the
	// dominant area/power component of the interconnect.
	p := DefaultParams()
	e, _, _ := fig9Configs()
	a := Area(e, p)
	if a.Buffers < a.Crossbar+a.Allocators+a.Control {
		t.Errorf("buffers (%.0f) do not dominate (other %.0f)",
			a.Buffers, a.Crossbar+a.Allocators+a.Control)
	}
	sp := StaticPower(e, p)
	if sp.Buffers < sp.Crossbar+sp.Allocators+sp.Control {
		t.Error("buffer static power does not dominate")
	}
}

func TestPerVNPowerSplit(t *testing.T) {
	p := DefaultParams()
	rc := RouterConfig{Ports: 5, VNets: 3, VCsPerVN: 2, FlitBits: 128, BufDepth: 5}
	cnt := noc.Counters{
		VNFlits:              []int64{1000, 10, 0},
		VNActiveRouterCycles: []int64{64 * 5000, 64 * 100, 0},
	}
	const cycles = 10000
	vp := PerVNPower(cnt, rc, p, cycles, 64, 1.0)
	if len(vp) != 3 {
		t.Fatalf("got %d VNs", len(vp))
	}
	// VN0 is busy half the time; VN2 never: all waste.
	if vp[0].ActiveMW <= vp[1].ActiveMW || vp[1].ActiveMW <= vp[2].ActiveMW {
		t.Errorf("active power not ordered by activity: %+v", vp)
	}
	if vp[2].ActiveMW != 0 {
		t.Errorf("idle VN has active power %v", vp[2].ActiveMW)
	}
	if vp[2].WastedMW <= 0 {
		t.Error("idle VN must waste static power")
	}
	// An idle VN wastes more than a busy VN.
	if vp[0].WastedMW >= vp[2].WastedMW {
		t.Errorf("busy VN wastes more than idle VN: %+v", vp)
	}
	// Paper Fig. 4: at realistic (low) utilization, waste dominates.
	totalActive := vp[0].ActiveMW + vp[1].ActiveMW + vp[2].ActiveMW
	totalWaste := vp[0].WastedMW + vp[1].WastedMW + vp[2].WastedMW
	if totalWaste < totalActive {
		t.Errorf("waste (%.2f) should dominate at low load (active %.2f)", totalWaste, totalActive)
	}
	if got := PerVNPower(cnt, rc, p, 0, 64, 1.0); got[0].ActiveMW != 0 {
		t.Error("zero-cycle run should report zero power")
	}
}

func TestMOESIScalingIncreasesSavings(t *testing.T) {
	// Paper §V-A: protocols needing more virtual networks (MOESI: 6)
	// make DRAIN's relative savings even greater.
	p := DefaultParams()
	mesi := RouterConfig{Ports: 5, VNets: 3, VCsPerVN: 2, FlitBits: 128, BufDepth: 5, Scheme: SchemeEscapeVC}
	moesi := RouterConfig{Ports: 5, VNets: 6, VCsPerVN: 2, FlitBits: 128, BufDepth: 5, Scheme: SchemeEscapeVC}
	d := RouterConfig{Ports: 5, VNets: 1, VCsPerVN: 1, FlitBits: 128, BufDepth: 5, Scheme: SchemeDRAIN}
	savingMESI := 1 - Area(d, p).Total()/Area(mesi, p).Total()
	savingMOESI := 1 - Area(d, p).Total()/Area(moesi, p).Total()
	if savingMOESI <= savingMESI {
		t.Errorf("MOESI saving %.3f not greater than MESI %.3f", savingMOESI, savingMESI)
	}
	powMESI := 1 - StaticPower(d, p).Total()/StaticPower(mesi, p).Total()
	powMOESI := 1 - StaticPower(d, p).Total()/StaticPower(moesi, p).Total()
	if powMOESI <= powMESI {
		t.Errorf("MOESI power saving %.3f not greater than MESI %.3f", powMOESI, powMESI)
	}
}

func TestBreakdownComponentsScale(t *testing.T) {
	p := DefaultParams()
	base := RouterConfig{Ports: 5, VNets: 1, VCsPerVN: 1, FlitBits: 128, BufDepth: 5}
	// Doubling VCs doubles buffer area, leaves crossbar unchanged.
	twice := base
	twice.VCsPerVN = 2
	a, b := Area(base, p), Area(twice, p)
	if b.Buffers != 2*a.Buffers {
		t.Errorf("buffer area %.0f → %.0f, want 2x", a.Buffers, b.Buffers)
	}
	if b.Crossbar != a.Crossbar {
		t.Error("crossbar area changed with VC count")
	}
	if b.Allocators <= a.Allocators {
		t.Error("allocator area should grow with VCs")
	}
	// More ports grow crossbar quadratically.
	wide := base
	wide.Ports = 10
	if Area(wide, p).Crossbar != 4*a.Crossbar {
		t.Error("crossbar should scale with ports²")
	}
	// Control overhead only with a scheme that has one.
	if a.Control != 0 {
		t.Error("plain router has control overhead")
	}
	spin := base
	spin.Scheme = SchemeSPIN
	if Area(spin, p).Control <= 0 {
		t.Error("SPIN router lacks control overhead")
	}
}

func TestVCsHelper(t *testing.T) {
	rc := RouterConfig{VNets: 3, VCsPerVN: 2}
	if rc.VCs() != 6 {
		t.Errorf("VCs = %d, want 6", rc.VCs())
	}
}

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeNone: "none", SchemeEscapeVC: "escape-vc", SchemeSPIN: "spin", SchemeDRAIN: "drain",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
