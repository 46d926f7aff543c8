// Package power is the analytical router power and area model standing
// in for DSENT at 11 nm (see DESIGN.md). It converts the simulator's
// microarchitectural event counts into dynamic energy, charges per-
// resource leakage and clock power, and produces the per-virtual-network
// active/wasted split of the paper's Fig. 4 and the area/static-power
// comparison of Fig. 9.
//
// Absolute values are arbitrary-but-plausible calibrations; every paper
// claim reproduced from this model is a ratio between schemes, which
// depends only on the resource scaling (buffer cost ∝ VNs × VCs × depth
// × flit width dominates the router, as DSENT reports).
package power

import "drain/internal/noc"

// Params holds per-event energies (pJ) and per-resource leakage (mW).
type Params struct {
	// Dynamic energy per flit event.
	BufWritePJ float64
	BufReadPJ  float64
	XbarPJ     float64
	LinkPJ     float64
	// Leakage + clock power per VC buffer (mW); scales with depth×width.
	VCLeakMW float64
	// Crossbar leakage per port² unit (mW).
	XbarLeakMW float64
	// Allocator leakage per port²·VC unit (mW).
	AllocLeakMW float64
	// Control overheads as fractions of the base router (area and
	// static power): SPIN's probe/coordination logic is reported at
	// ~15% (paper §V-A); DRAIN's epoch register + turn-table is tiny.
	SpinOverhead  float64
	DrainOverhead float64
}

// DefaultParams returns the 11 nm-inspired calibration.
func DefaultParams() Params {
	return Params{
		BufWritePJ:    0.60,
		BufReadPJ:     0.45,
		XbarPJ:        0.55,
		LinkPJ:        1.20,
		VCLeakMW:      0.75,
		XbarLeakMW:    0.080,
		AllocLeakMW:   0.016,
		SpinOverhead:  0.15,
		DrainOverhead: 0.02,
	}
}

// Scheme tags the deadlock-freedom mechanism for control-overhead
// accounting.
type Scheme int

// Scheme values.
const (
	SchemeNone Scheme = iota
	SchemeEscapeVC
	SchemeSPIN
	SchemeDRAIN
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeEscapeVC:
		return "escape-vc"
	case SchemeSPIN:
		return "spin"
	case SchemeDRAIN:
		return "drain"
	default:
		return "none"
	}
}

// RouterConfig describes one router's provisioned resources.
type RouterConfig struct {
	Ports    int // input/output ports including the local port
	VNets    int
	VCsPerVN int
	FlitBits int
	BufDepth int // flits per VC (single-packet VCT: max packet size)
	Scheme   Scheme
}

// VCs returns total VCs per input port.
func (c RouterConfig) VCs() int { return c.VNets * c.VCsPerVN }

// Breakdown decomposes router area (µm², arbitrary calibration) or
// static power (mW) into components.
type Breakdown struct {
	Buffers    float64
	Crossbar   float64
	Allocators float64
	Control    float64
}

// Total sums the components.
func (b Breakdown) Total() float64 { return b.Buffers + b.Crossbar + b.Allocators + b.Control }

// controlFactor returns the scheme's control overhead fraction.
func controlFactor(s Scheme, p Params) float64 {
	switch s {
	case SchemeSPIN:
		return p.SpinOverhead
	case SchemeDRAIN:
		return p.DrainOverhead
	default:
		return 0
	}
}

// Area models one router's area. Buffer area dominates and scales with
// total VC storage; crossbar with ports²×width; allocators with
// ports²×VCs.
func Area(c RouterConfig, p Params) Breakdown {
	const (
		aPerBufBit = 1.8 // µm² per flip-flop-equivalent buffer bit
		aXbarUnit  = 1.1
		aAllocUnit = 20.0
	)
	b := Breakdown{
		Buffers:    float64(c.Ports) * float64(c.VCs()) * float64(c.BufDepth) * float64(c.FlitBits) * aPerBufBit,
		Crossbar:   float64(c.Ports*c.Ports) * float64(c.FlitBits) * aXbarUnit,
		Allocators: float64(c.Ports*c.Ports) * float64(c.VCs()) * aAllocUnit,
	}
	b.Control = controlFactor(c.Scheme, p) * (b.Crossbar + b.Allocators + b.Buffers*0.15)
	return b
}

// StaticPower models one router's leakage + clock power in mW.
func StaticPower(c RouterConfig, p Params) Breakdown {
	b := Breakdown{
		Buffers:    float64(c.Ports) * float64(c.VCs()) * float64(c.BufDepth) / 5.0 * float64(c.FlitBits) / 128.0 * p.VCLeakMW,
		Crossbar:   float64(c.Ports*c.Ports) * p.XbarLeakMW,
		Allocators: float64(c.Ports*c.Ports) * float64(c.VCs()) * p.AllocLeakMW,
	}
	b.Control = controlFactor(c.Scheme, p) * (b.Crossbar + b.Allocators + b.Buffers*0.15)
	return b
}

// VNPower is the Fig. 4 split for one virtual network.
type VNPower struct {
	ActiveMW float64 // dynamic + static during cycles with flit movement
	WastedMW float64 // static burned during idle cycles
}

// PerVNPower computes each virtual network's active and wasted power over
// a run of `cycles` cycles at `freqGHz`, for a system of `routers`
// routers configured per rc.
func PerVNPower(cnt noc.Counters, rc RouterConfig, p Params, cycles int64, routers int, freqGHz float64) []VNPower {
	out := make([]VNPower, rc.VNets)
	if cycles <= 0 {
		return out
	}
	// Static power of one VN's buffers across the whole system.
	perVNStatic := float64(rc.Ports) * float64(rc.VCsPerVN) * float64(rc.BufDepth) / 5.0 *
		float64(rc.FlitBits) / 128.0 * p.VCLeakMW * float64(routers)
	timeNS := float64(cycles) / freqGHz
	for vn := range out {
		var active, flits int64
		if vn < len(cnt.VNActiveRouterCycles) {
			active = cnt.VNActiveRouterCycles[vn]
			flits = cnt.VNFlits[vn]
		}
		frac := float64(active) / float64(cycles) / float64(routers)
		dynPJ := float64(flits) * (p.BufWritePJ + p.BufReadPJ + p.XbarPJ + p.LinkPJ)
		out[vn] = VNPower{
			ActiveMW: perVNStatic*frac + dynPJ/timeNS, // pJ/ns = mW
			WastedMW: perVNStatic * (1 - frac),
		}
	}
	return out
}
