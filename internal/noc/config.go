package noc

import (
	"fmt"

	"drain/internal/routing"
	"drain/internal/topology"
)

// Config describes a network instance. The defaults mirror the paper's
// Table II where applicable.
type Config struct {
	Graph *topology.Graph
	Mesh  *topology.Mesh // optional; required for XY routing

	// VNets is the number of virtual networks; message class c uses
	// virtual network c mod VNets. VCsPerVN is the number of VCs per
	// virtual network at every input port (Table II: 2 VCs/VNet).
	VNets    int
	VCsPerVN int
	// Classes is the number of message classes the system injects
	// (MESI: 3 — request, forward, response).
	Classes int

	// PolicyEscape designates VC 0 of each virtual network as an escape
	// VC: any packet may enter it (subject to EscapeRouting legality) but
	// may never leave back to a non-escape VC. Without it all VCs are
	// equivalent (SPIN's configuration).
	PolicyEscape bool
	// Routing is the algorithm for non-escape VCs (and for all VCs when
	// PolicyEscape is false).
	Routing routing.Kind
	// EscapeRouting is the algorithm packets in escape VCs must follow.
	// For the escape-VC baseline this is XY or UpDown (turn-restricted);
	// for DRAIN it equals Routing (the escape VC is unrestricted — the
	// drains make it safe).
	EscapeRouting routing.Kind

	// MaxFlits is the largest packet size; it sizes the pre-drain window.
	MaxFlits int
	// EjectCap is the per-class ejection queue capacity at each node.
	EjectCap int
	// InjectCap bounds each per-class injection queue (0 = unbounded).
	InjectCap int

	// DerouteAfter lets a packet routed by AdaptiveMinimal request *any*
	// output (misroute, including U-turns) once it has stalled this many
	// cycles — "fully adaptive random" routing in its unrestricted
	// reading, which keeps post-saturation throughput stable (default 8).
	// Negative keeps routing strictly minimal: the maximally deadlock-
	// prone substrate, used to *measure* deadlock occurrence (Fig. 3)
	// and to construct deadlocks in tests. See DESIGN.md §"substrate
	// regimes".
	DerouteAfter int

	// NonStickyEscape relaxes the "once in escape, always in escape"
	// rule: packets in escape VCs may move back to non-escape VCs.
	// Classic escape-VC deadlock freedom (Duato) keeps stickiness;
	// DRAIN does not need it — the periodic drains make the escape VCs
	// safe regardless — and without it the escape VC contributes its
	// capacity like any other VC (how the paper's VN-1/VC-2 DRAIN
	// matches SPIN's 2-VC throughput).
	NonStickyEscape bool

	// Seed drives all randomized arbitration decisions.
	Seed uint64

	// Engine selects the cycle-core implementation. The zero value is
	// EngineEvent (activity bitmaps + timing wheel);
	// EngineDense, the reference the differential tests compare it with,
	// keeps the exhaustive per-cycle rescans. The two are byte-identical
	// — same RNG draw sequence, same counters, same results — differing
	// only in speed; see DESIGN.md §"Event-driven core" and
	// FuzzDenseVsEvent. Any other value is rejected.
	Engine EngineKind

	// Table optionally supplies a prebuilt routing table for Graph/Mesh
	// (from routing.NewTable over exactly this Graph). Tables are
	// immutable and safely shared between networks; at thousands of
	// routers their construction dominates Network setup, so callers
	// building several networks over one topology (engine differentials,
	// load sweeps) should build the table once. Nil builds a fresh one.
	Table *routing.Table
}

// Validate checks the configuration and fills zero fields with defaults.
func (c *Config) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("noc: Config.Graph is required")
	}
	if !c.Graph.Connected() {
		return fmt.Errorf("noc: topology must be connected")
	}
	if c.VNets <= 0 {
		c.VNets = 1
	}
	if c.VCsPerVN <= 0 {
		c.VCsPerVN = 2
	}
	if c.VNets > MaxVCsPerPort || c.VCsPerVN > MaxVCsPerPort || c.VNets*c.VCsPerVN > MaxVCsPerPort {
		return fmt.Errorf("noc: %d VNets x %d VCsPerVN exceeds %d VCs per port", c.VNets, c.VCsPerVN, MaxVCsPerPort)
	}
	if c.Classes <= 0 {
		c.Classes = 1
	}
	if c.MaxFlits <= 0 {
		c.MaxFlits = 5
	}
	if c.EjectCap <= 0 {
		c.EjectCap = 4
	}
	if c.DerouteAfter == 0 {
		c.DerouteAfter = 8
	}
	if c.Engine != EngineEvent && c.Engine != EngineDense {
		return fmt.Errorf("noc: unknown Config.Engine %d", int(c.Engine))
	}
	if c.Routing == routing.XY && c.Mesh == nil {
		return fmt.Errorf("noc: XY routing requires Config.Mesh")
	}
	if c.PolicyEscape && c.EscapeRouting == routing.XY && c.Mesh == nil {
		return fmt.Errorf("noc: XY escape routing requires Config.Mesh")
	}
	if c.Table != nil && c.Table.Graph() != c.Graph {
		return fmt.Errorf("noc: Config.Table was built for a different topology")
	}
	return nil
}

// VCsPerPort returns the total number of VCs at each input port.
func (c *Config) VCsPerPort() int { return c.VNets * c.VCsPerVN }

// VNetOf returns the virtual network used by a message class.
func (c *Config) VNetOf(class int) int { return class % c.VNets }

// EscapeSlot returns the escape VC slot index within virtual network vn.
func (c *Config) EscapeSlot(vn int) int { return vn * c.VCsPerVN }

// IsEscapeSlot reports whether slot index s is an escape VC slot.
func (c *Config) IsEscapeSlot(s int) bool { return s%c.VCsPerVN == 0 }
