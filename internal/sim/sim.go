// Package sim wires topology, routing, the NoC, a deadlock-freedom
// scheme and a workload into one deterministic simulation run. It is the
// layer the experiment harness, the benchmarks and the public facade
// build on, and its defaults mirror the paper's Table II.
package sim

import (
	"fmt"

	"drain/internal/core"
	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/spinrec"
	"drain/internal/topology"
)

// Scheme selects the deadlock-freedom mechanism under test.
type Scheme int

// Schemes.
const (
	// SchemeNone applies no protection: fully adaptive routing that can
	// and does deadlock (the paper's Fig. 3 measurement configuration).
	SchemeNone Scheme = iota
	// SchemeIdeal is deadlock-free fully adaptive routing with SPIN's
	// controller at ideal timing (Fig. 5's "ideal"): a check every 8
	// cycles and probes that cost no time (spinrec.NewIdeal).
	SchemeIdeal
	// SchemeEscapeVC is the proactive baseline: escape VCs with
	// turn-restricted routing (DoR fault-free, up*/down* faulty) and one
	// virtual network per message class.
	SchemeEscapeVC
	// SchemeSPIN is the reactive baseline: unrestricted adaptive routing
	// with timeout-probe detection and coordinated spins, one virtual
	// network per message class.
	SchemeSPIN
	// SchemeDRAIN is the paper's subactive mechanism: unrestricted
	// adaptive routing, a single virtual network, periodic drains.
	SchemeDRAIN
	// SchemeUpDown routes every packet with turn-restricted up*/down*
	// (used standalone for Fig. 5's comparison).
	SchemeUpDown
	// SchemeDoR is the classic baseline router (Table I "virtual
	// networks" row): deterministic dimension-order routing, deadlock-
	// free by turn elimination, one virtual network per message class.
	// It requires a fault-free mesh.
	SchemeDoR
)

// ParseScheme parses a scheme name as printed by Scheme.String (plus
// the "escape" shorthand for escape-vc). It is the single source of
// truth for the scheme vocabulary cmd/drainsim flags and server
// requests share.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "none":
		return SchemeNone, nil
	case "ideal":
		return SchemeIdeal, nil
	case "escape", "escape-vc":
		return SchemeEscapeVC, nil
	case "spin":
		return SchemeSPIN, nil
	case "drain":
		return SchemeDRAIN, nil
	case "updown":
		return SchemeUpDown, nil
	case "dor":
		return SchemeDoR, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (none|ideal|escape|spin|drain|updown|dor)", s)
	}
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeIdeal:
		return "ideal"
	case SchemeEscapeVC:
		return "escape-vc"
	case SchemeSPIN:
		return "spin"
	case SchemeDRAIN:
		return "drain"
	case SchemeUpDown:
		return "updown"
	case SchemeDoR:
		return "dor"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Params configures one simulation (Table II defaults).
type Params struct {
	// Width×Height mesh; Faults bidirectional links are removed randomly
	// (connectivity preserved) using FaultSeed.
	Width, Height int
	Faults        int
	FaultSeed     uint64

	Scheme Scheme

	// VNets/VCsPerVN override the scheme defaults when nonzero
	// (escape-VC and SPIN default to 3 VNets; DRAIN to 1; all to 2 VCs).
	VNets    int
	VCsPerVN int
	// Classes defaults to 1 for synthetic runs; coherence runs force 3.
	Classes int

	// Epoch is DRAIN's drain period (default 64K cycles).
	Epoch int64
	// FullDrainEvery is DRAIN's full-drain period in drain windows.
	FullDrainEvery int
	// DrainHops is forced hops per drain window (ablation; default 1).
	DrainHops int
	// DrainAlgorithm picks the offline path construction.
	DrainAlgorithm core.PathAlgorithm
	// SpinTimeout is SPIN's detection timeout (default 1024).
	SpinTimeout int64

	// MaxFlits bounds packet size (default 5); InjectCap/EjectCap bound
	// the NI queues.
	MaxFlits  int
	InjectCap int
	EjectCap  int

	// CtrlFraction is the fraction of 1-flit packets in synthetic runs
	// (the rest are MaxFlits-sized). Defaults to 1.0: standard synthetic
	// evaluation uses single-flit packets. Negative means 0.
	CtrlFraction float64
	// DerouteAfter: see noc.Config.DerouteAfter. Zero takes noc's default
	// of 8; negative keeps routing strictly minimal (only fig3 and fig8).
	DerouteAfter int
	// StickyEscape forces DRAIN to use the classic sticky escape-VC
	// discipline (ablation; see noc.Config.NonStickyEscape).
	StickyEscape bool
	// MSHRs bounds outstanding misses per core in coherence runs
	// (default 4; the paper's systems have deeper miss-level
	// parallelism, which raises network pressure).
	MSHRs int

	// Engine selects the noc cycle-core implementation (zero value:
	// event-driven; noc.EngineDense is the reference the differential
	// tests compare it with — see noc.Config.Engine). Results are
	// byte-identical across the two, so this only affects speed.
	Engine noc.EngineKind

	// FaultSchedule lists live topology changes (link failures and
	// recoveries) applied mid-run at the scheduled cycle boundaries; see
	// FaultEvent and ValidateFaultSchedule. A schedule changes
	// simulation results, so it stays in the JSON form cache keys are
	// derived from.
	FaultSchedule []FaultEvent `json:",omitempty"`

	// RoutingTable optionally reuses a prebuilt routing table (see
	// noc.Config.Table). It must have been built over the *same graph
	// value* the runner gets, so it pairs with BuildOn (Build constructs
	// a fresh graph, which can never match). Routing is a pure function
	// of the (already-keyed) topology parameters, so reuse cannot change
	// results, and concurrent runs may share one; excluded from cache keys (the server's
	// TestKeyStructsFullyClassified holds the list of such fields).
	RoutingTable *routing.Table `json:"-"`

	Seed uint64
}

func (p *Params) setDefaults() {
	if p.Width <= 0 {
		p.Width = 8
	}
	if p.Height <= 0 {
		p.Height = 8
	}
	if p.Classes <= 0 {
		p.Classes = 1
	}
	if p.VNets <= 0 {
		switch p.Scheme {
		case SchemeEscapeVC, SchemeSPIN, SchemeDoR:
			p.VNets = min(3, p.Classes) // one VN per message class
		default:
			p.VNets = 1
		}
	}
	if p.VCsPerVN <= 0 {
		p.VCsPerVN = 2
	}
	if p.Epoch <= 0 {
		p.Epoch = 64 * 1024
	}
	if p.SpinTimeout <= 0 {
		p.SpinTimeout = 1024
	}
	if p.MaxFlits <= 0 {
		p.MaxFlits = 5
	}
	if p.CtrlFraction == 0 {
		// Negative stays negative (meaning "no control packets") so this
		// defaulting is idempotent; RunSynthetic clamps at use.
		p.CtrlFraction = 1.0
	}
}

// Normalized returns a copy of p with every defaulted field resolved
// to its effective value (exactly what Build applies). Two Params
// values describe the same simulation iff their Normalized forms are
// equal, which makes Normalized the canonical form for content-
// addressed caching of run results.
func (p Params) Normalized() Params {
	p.setDefaults()
	return p
}

// Runner holds one fully wired simulation instance.
type Runner struct {
	Params Params
	Mesh   *topology.Mesh  // the fault-free mesh (nil for custom graphs)
	Graph  *topology.Graph // the (possibly faulty) topology in use
	Net    *noc.Network

	Drain *core.Controller
	Spin  *spinrec.Controller // SPIN's or the ideal baseline's

	// Probe, when set before a run, sees its events (see Probe). Nil, the
	// default, costs the loop one branch per event site.
	Probe *Probe

	// FaultReports records one entry per live reconfiguration applied
	// from Params.FaultSchedule, in application order.
	FaultReports []noc.ReconfigReport

	// active is the currently fault-free subgraph (Graph until the first
	// scheduled fault fires, and again whenever every link is back up);
	// faultIdx is the next unapplied event. down marks, per edge of Graph
	// (Edges() index), the numDown links currently failed. fullTab is the
	// table the network was built on, over Graph and rooted at router 0
	// like every table reconfigure builds: a full restore reinstalls it.
	active   *topology.Graph
	faultIdx int
	down     []bool
	numDown  int
	fullTab  *routing.Table
}

// Build constructs a Runner from params.
func Build(p Params) (*Runner, error) {
	g, mesh, err := p.BuildGraph()
	if err != nil {
		return nil, err
	}
	return BuildOn(g, mesh, p)
}

// BuildGraph constructs exactly the (possibly randomly faulted)
// topology Build would simulate on, without building the network.
// Servers use it to validate a request's fault schedule against the
// concrete topology up front, so a bad schedule fails fast instead of
// failing the job at execution time.
func (p Params) BuildGraph() (*topology.Graph, *topology.Mesh, error) {
	p.setDefaults()
	mesh, err := topology.NewMesh(p.Width, p.Height)
	if err != nil {
		return nil, nil, err
	}
	g, err := topology.FaultPattern(mesh.Graph, p.Faults, p.FaultSeed)
	return g, mesh, err
}

// BuildOn constructs a Runner over an explicit topology (irregular,
// chiplet, random…). mesh may be nil unless the scheme needs XY routing
// (fault-free escape VC).
func BuildOn(g *topology.Graph, mesh *topology.Mesh, p Params) (*Runner, error) {
	p.setDefaults()
	if len(p.FaultSchedule) > 0 {
		if p.Scheme == SchemeDoR {
			return nil, fmt.Errorf("sim: dimension-order routing cannot survive link failures (no fault schedule with scheme dor)")
		}
		if err := ValidateFaultSchedule(g, p.FaultSchedule); err != nil {
			return nil, fmt.Errorf("sim: %v", err)
		}
	}
	cfg := noc.Config{
		Graph:        g,
		Mesh:         mesh,
		VNets:        p.VNets,
		VCsPerVN:     p.VCsPerVN,
		Classes:      p.Classes,
		MaxFlits:     p.MaxFlits,
		InjectCap:    p.InjectCap,
		EjectCap:     p.EjectCap,
		DerouteAfter: p.DerouteAfter,
		Seed:         p.Seed,
		Engine:       p.Engine,
		Table:        p.RoutingTable,
	}
	switch p.Scheme {
	case SchemeNone, SchemeIdeal, SchemeSPIN:
		cfg.Routing = routing.AdaptiveMinimal
	case SchemeUpDown:
		cfg.Routing = routing.UpDown
	case SchemeDoR:
		if mesh == nil || g != mesh.Graph {
			return nil, fmt.Errorf("sim: dimension-order routing needs a fault-free mesh")
		}
		cfg.Routing = routing.XY
	case SchemeEscapeVC:
		cfg.PolicyEscape = true
		cfg.Routing = routing.AdaptiveMinimal
		// XY escape is only legal on a fault-free mesh; a fault schedule
		// breaks that mid-run, so such runs use up*/down* from cycle 0.
		if p.Faults == 0 && len(p.FaultSchedule) == 0 && mesh != nil && g == mesh.Graph {
			cfg.EscapeRouting = routing.XY // DoR is legal fault-free
		} else {
			cfg.EscapeRouting = routing.UpDown
		}
	case SchemeDRAIN:
		cfg.PolicyEscape = true
		cfg.Routing = routing.AdaptiveMinimal
		cfg.EscapeRouting = routing.AdaptiveMinimal // unrestricted escape
		// Drains keep the escape VC safe without stickiness, so its
		// capacity stays usable (see noc.Config.NonStickyEscape).
		cfg.NonStickyEscape = !p.StickyEscape
	default:
		return nil, fmt.Errorf("sim: unknown scheme %v", p.Scheme)
	}
	net, err := noc.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &Runner{Params: p, Mesh: mesh, Graph: g, Net: net, active: g, fullTab: net.Table()}
	switch p.Scheme {
	case SchemeDRAIN:
		ctl, err := core.New(net, core.Config{
			Epoch:          p.Epoch,
			FullDrainEvery: p.FullDrainEvery,
			DrainHops:      p.DrainHops,
			Algorithm:      p.DrainAlgorithm,
		})
		if err != nil {
			return nil, err
		}
		r.Drain = ctl
	case SchemeSPIN:
		r.Spin = spinrec.New(net, p.SpinTimeout)
	case SchemeIdeal:
		r.Spin = spinrec.NewIdeal(net)
	}
	return r, nil
}

// TickScheme advances whichever controller the scheme uses; call once
// per cycle after Net.Step.
func (r *Runner) TickScheme() error {
	switch {
	case r.Drain != nil:
		return r.Drain.Tick()
	case r.Spin != nil:
		return r.Spin.Tick()
	}
	return nil
}

// PortsPerRouter returns the mean router port count (links + local) for
// the power model.
func (r *Runner) PortsPerRouter() int {
	links := 0
	for n := 0; n < r.Graph.N(); n++ {
		links += r.Graph.Degree(n)
	}
	return links/r.Graph.N() + 1
}
