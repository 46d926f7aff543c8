// Package server turns the batch experiment harness into a long-lived
// simulation service: an HTTP JSON API that accepts figure and sweep
// requests, executes each on the server's budget of run slots, and
// caches results by a content address of the fully defaulted run
// configuration. Everything the simulator computes is a pure function
// of that configuration, so identical requests are answered with
// byte-identical cached bytes and never recomputed.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"drain/internal/experiments"
	"drain/internal/noc"
	"drain/internal/sim"
	"drain/internal/traffic"
)

// Request job kinds.
const (
	KindFigure = "figure" // re-run one registry experiment (cmd/experiments parity)
	KindSweep  = "sweep"  // custom latency/throughput sweep (cmd/drainsim -sweep parity)
)

// Request is the body of POST /v1/jobs. Exactly the parameters that
// determine a run's output appear here; omitted fields take the same
// defaults the CLIs apply, so an explicit default and an omitted field
// describe — and cache as — the same simulation.
type Request struct {
	// Kind selects the job type. It may be omitted when Fig is set
	// (implying "figure"); otherwise it defaults to "sweep".
	Kind string `json:"kind,omitempty"`

	// Figure jobs: one cmd/experiments registry entry.
	Fig   string `json:"fig,omitempty"`
	Scale string `json:"scale,omitempty"` // "quick" (default) or "full"
	Seed  uint64 `json:"seed,omitempty"`  // base seed, default 1

	// Sweep jobs: scheme/topology/fault/load axes of one load sweep.
	Scheme    string    `json:"scheme,omitempty"`     // sim.ParseScheme vocabulary, default "drain"
	Width     int       `json:"width,omitempty"`      // mesh width, default 8
	Height    int       `json:"height,omitempty"`     // mesh height, default 8
	Faults    int       `json:"faults,omitempty"`     // removed bidirectional links
	FaultSeed uint64    `json:"fault_seed,omitempty"` // fault pattern seed
	VNets     int       `json:"vnets,omitempty"`      // virtual networks (scheme default)
	VCsPerVN  int       `json:"vcs_per_vn,omitempty"` // VCs per VNet, default 2
	Epoch     int64     `json:"epoch,omitempty"`      // DRAIN epoch, default 64K
	Pattern   string    `json:"pattern,omitempty"`    // traffic pattern, default "uniform"
	Rates     []float64 `json:"rates,omitempty"`      // offered loads, default {0.02, 0.10}
	Warmup    int64     `json:"warmup,omitempty"`     // warmup cycles, default 1000
	Measure   int64     `json:"measure,omitempty"`    // measured cycles, default 4000

	// FaultSchedule lists live topology changes (link failures and
	// recoveries) applied mid-run at the scheduled cycles; see
	// sim.FaultEvent. A schedule changes what the sweep computes, so it
	// IS part of the cache key (it rides inside the canonical form's
	// embedded sim.Params).
	FaultSchedule []sim.FaultEvent `json:"fault_schedule,omitempty"`

	// RNGMode is validated input, not a setting: there is one draw
	// discipline, so "" and "exact" are accepted and change nothing (not
	// the cache key either), and anything else is a 400. It stays because
	// requests are decoded with DisallowUnknownFields and cmd/drainbench's
	// serve_warm re-sends "rng_mode":"exact" as an explicit default.
	RNGMode string `json:"rng_mode,omitempty"`
}

// maxMesh bounds served topologies: a request is user input, and an
// enormous mesh is a denial-of-service, not an experiment.
const maxMesh = 64

// maxRates bounds the number of load points per sweep request.
const maxRates = 64

// maxFaultEvents bounds the fault schedule per sweep request.
const maxFaultEvents = 256

// canonical is a Request with every default resolved — the normal form
// two equivalent requests share. Its JSON encoding (struct-declaration
// field order, fully populated) is the preimage of the cache key, so
// the key depends on exactly the semantic content of the request:
// JSON field order and explicit-vs-defaulted values cannot change it,
// and any semantic change must.
type canonical struct {
	Kind string `json:"kind"`

	// Figure form (zero for sweeps).
	Fig   string `json:"fig"`
	Scale string `json:"scale"`
	Seed  uint64 `json:"seed"`

	// Sweep form (zero for figures). Params is sim.Params.Normalized:
	// the exact effective configuration Build uses, including
	// scheme-dependent defaults like the VNet count.
	Params  sim.Params `json:"params"`
	Pattern string     `json:"pattern"`
	Rates   []float64  `json:"rates"`
	Warmup  int64      `json:"warmup"`
	Measure int64      `json:"measure"`
}

// Canonicalize validates req and resolves every default, returning the
// canonical form. The error text is safe to return to clients.
func (req Request) Canonicalize() (canonical, error) {
	if req.RNGMode != "" && req.RNGMode != "exact" {
		return canonical{}, fmt.Errorf("unknown rng_mode %q (the only accepted value is \"exact\", which is also the default)", req.RNGMode)
	}
	kind := req.Kind
	if kind == "" {
		if req.Fig != "" {
			kind = KindFigure
		} else {
			kind = KindSweep
		}
	}
	switch kind {
	case KindFigure:
		return req.canonicalFigure()
	case KindSweep:
		return req.canonicalSweep()
	default:
		return canonical{}, fmt.Errorf("unknown kind %q (figure|sweep)", kind)
	}
}

func (req Request) canonicalFigure() (canonical, error) {
	if req.Fig == "" {
		return canonical{}, fmt.Errorf("figure request needs \"fig\" (one of the cmd/experiments -list IDs)")
	}
	if _, ok := experiments.ByID(req.Fig); !ok {
		return canonical{}, fmt.Errorf("unknown figure %q", req.Fig)
	}
	scale := req.Scale
	switch scale {
	case "":
		scale = "quick"
	case "quick", "full":
	default:
		return canonical{}, fmt.Errorf("unknown scale %q (quick|full)", scale)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	return canonical{Kind: KindFigure, Fig: req.Fig, Scale: scale, Seed: seed}, nil
}

func (req Request) canonicalSweep() (canonical, error) {
	scheme := req.Scheme
	if scheme == "" {
		scheme = "drain"
	}
	sch, err := sim.ParseScheme(scheme)
	if err != nil {
		return canonical{}, err
	}
	if req.Width < 0 || req.Height < 0 || req.Width > maxMesh || req.Height > maxMesh {
		return canonical{}, fmt.Errorf("mesh %dx%d out of range (1..%d per side)", req.Width, req.Height, maxMesh)
	}
	if req.Faults < 0 {
		return canonical{}, fmt.Errorf("faults must be >= 0")
	}
	if req.Warmup < 0 || req.Measure < 0 {
		return canonical{}, fmt.Errorf("warmup and measure must be >= 0")
	}
	if len(req.FaultSchedule) > maxFaultEvents {
		return canonical{}, fmt.Errorf("too many fault events (%d > %d)", len(req.FaultSchedule), maxFaultEvents)
	}
	p := sim.Params{
		Width: req.Width, Height: req.Height,
		Faults: req.Faults, FaultSeed: req.FaultSeed,
		Scheme: sch,
		VNets:  req.VNets, VCsPerVN: req.VCsPerVN,
		Epoch:         req.Epoch,
		Seed:          req.Seed,
		FaultSchedule: req.FaultSchedule,
	}.Normalized()
	if p.FaultSeed == 0 {
		p.FaultSeed = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.VNets > noc.MaxVCsPerPort || p.VCsPerVN > noc.MaxVCsPerPort || p.VNets*p.VCsPerVN > noc.MaxVCsPerPort {
		return canonical{}, fmt.Errorf("vnets %d x vcs_per_vn %d out of range (at most %d VCs per port)", p.VNets, p.VCsPerVN, noc.MaxVCsPerPort)
	}
	// A topology nothing can run on is the client's error, found here in
	// O(1) instead of as a 500 at execution time. A network needs two
	// routers; a connected WxH mesh keeps WH-1 of its W(H-1)+H(W-1)
	// links, and RemoveRandomLinks only removes non-bridge links, so
	// exactly that many removals succeed; DoR tolerates none.
	routers := p.Width * p.Height
	if routers < 2 {
		return canonical{}, fmt.Errorf("mesh %dx%d has no links (a network needs at least 2 routers)", p.Width, p.Height)
	}
	if links := p.Width*(p.Height-1) + p.Height*(p.Width-1); p.Faults > links-(routers-1) {
		return canonical{}, fmt.Errorf("faults %d: a %dx%d mesh can lose at most %d of its %d links and stay connected", p.Faults, p.Width, p.Height, links-(routers-1), links)
	}
	if p.Scheme == sim.SchemeDoR && (p.Faults > 0 || len(p.FaultSchedule) > 0) {
		return canonical{}, fmt.Errorf("scheme dor needs a fault-free mesh (no faults, no fault schedule)")
	}
	if len(p.FaultSchedule) > 0 {
		// Validate the schedule against the concrete topology up front,
		// for the same reason: sorted unique events, legal link states,
		// connectivity preserved throughout.
		g, _, err := p.BuildGraph()
		if err != nil {
			return canonical{}, err
		}
		if err := sim.ValidateFaultSchedule(g, p.FaultSchedule); err != nil {
			return canonical{}, err
		}
	}
	pattern := req.Pattern
	if pattern == "" {
		pattern = "uniform"
	}
	// Validate the pattern name up front so a bad request fails with 400
	// now instead of 500 at execution time.
	if _, err := traffic.ByName(pattern, routers, p.Width); err != nil {
		return canonical{}, err
	}
	rates := req.Rates
	if len(rates) == 0 {
		rates = []float64{0.02, 0.10}
	}
	if len(rates) > maxRates {
		return canonical{}, fmt.Errorf("too many rates (%d > %d)", len(rates), maxRates)
	}
	for _, r := range rates {
		if r <= 0 || r > 1 {
			return canonical{}, fmt.Errorf("rate %v out of range (0, 1]", r)
		}
	}
	warmup, measure := req.Warmup, req.Measure
	if warmup == 0 {
		warmup = 1000
	}
	if measure == 0 {
		measure = 4000
	}
	return canonical{
		Kind: KindSweep, Params: p, Pattern: pattern,
		Rates: rates, Warmup: warmup, Measure: measure,
	}, nil
}

// Key returns the content address of the canonical request: the hex
// SHA-256 of its deterministic JSON encoding.
func (c canonical) Key() string {
	data, err := json.Marshal(c)
	if err != nil {
		// canonical contains only marshalable fields; this cannot fail.
		panic(fmt.Sprintf("server: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Response is the body of a successful job: the regenerated tables and
// their rendered markdown, exactly what cmd/experiments (for figures)
// or cmd/drainsim -sweep (for sweeps) would deterministically print.
type Response struct {
	Key      string              `json:"key"`
	Kind     string              `json:"kind"`
	Tables   []experiments.Table `json:"tables"`
	Markdown string              `json:"markdown"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}
