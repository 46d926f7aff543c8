package noc

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"drain/internal/drainpath"
	"drain/internal/routing"
	"drain/internal/topology"
)

// fixedRand seeds quick.Check's input stream: its default is seeded from
// the clock, which makes a property test's verdict depend on when it ran.
func fixedRand() *mrand.Rand { return mrand.New(mrand.NewSource(1)) }

// errSkip marks an input that produced no simulable configuration
// (e.g. the random graph could not be built); not a property violation.
var errSkip = errors.New("uninteresting input")

// buildReconfig computes what a live topology change needs: the routing
// table over the active subgraph with candidates remapped into full's
// link-ID space, and the drain turn-table in full's link-ID space with
// -1 for failed links (exactly what core.Controller.Reconfigure
// produces).
func buildReconfig(active, full *topology.Graph) (*routing.Table, []int, error) {
	tab, err := routing.NewTableRemapped(active, full, 0)
	if err != nil {
		return nil, nil, err
	}
	path, err := drainpath.FindEulerian(active)
	if err != nil {
		return nil, nil, err
	}
	next := make([]int, full.NumLinks())
	for i := range next {
		next[i] = -1
	}
	for _, al := range active.Links() {
		fid, ok := full.LinkID(al.From, al.To)
		if !ok {
			return nil, nil, fmt.Errorf("active link %v not in full graph", al)
		}
		sl := active.Link(path.NextID(al.ID))
		fsucc, ok := full.LinkID(sl.From, sl.To)
		if !ok {
			return nil, nil, fmt.Errorf("active link %v not in full graph", sl)
		}
		next[fid] = fsucc
	}
	return tab, next, nil
}

// fuzzConfig is the configuration both fuzz properties draw: a random
// connected graph of 4–15 routers, 1–2 virtual networks of 1–3 VCs each,
// adaptive routing, and for even escRaw an escape VC, sticky or not,
// routed by AdaptiveMinimal, UpDown or XY (XY on a mesh of 2–4 x 2–4
// routers instead of the random graph). So both head-mask layouts run:
// escape masks shared with the main ones (sharedEscape) and escape lists
// of their own.
func fuzzConfig(seed uint64, rng *rand.Rand, nRaw, vnRaw, vcRaw, escRaw uint8) (Config, error) {
	vnets := int(vnRaw%2) + 1
	cfg := Config{
		VNets: vnets, VCsPerVN: int(vcRaw%3) + 1, Classes: vnets,
		Routing: routing.AdaptiveMinimal,
		Seed:    seed,
	}
	if escRaw%2 == 0 {
		cfg.PolicyEscape = true
		cfg.EscapeRouting = []routing.Kind{routing.AdaptiveMinimal, routing.UpDown, routing.XY}[escRaw/4%3]
		cfg.NonStickyEscape = escRaw%4 == 0
	}
	if cfg.EscapeRouting == routing.XY {
		m := topology.MustMesh(int(nRaw%3)+2, int(nRaw/3%3)+2)
		cfg.Graph, cfg.Mesh = m.Graph, m
		return cfg, nil
	}
	g, err := topology.NewRandomConnected(int(nRaw%12)+4, int(seed%7), rng)
	cfg.Graph = g
	return cfg, err
}

// checkConservation is the simulator's strongest net: random topologies,
// random VC structure, random traffic, periodic drains and live link
// failures/recoveries — no packet may ever be lost, duplicated or
// misdelivered (packets cut by a failure are accounted in FaultDrops),
// and the internal invariants must hold throughout. It returns nil on
// success, errSkip for inputs that produce no simulable config, and a
// descriptive error on a property violation. Shared by the quick.Check
// property test and the native fuzz target.
func checkConservation(seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) error {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	cfg, err := fuzzConfig(seed, rng, nRaw, vnRaw, vcRaw, escRaw)
	if err != nil {
		return errSkip
	}
	g, nNodes, vnets := cfg.Graph, cfg.Graph.N(), cfg.VNets
	net, err := New(cfg)
	if err != nil {
		return errSkip
	}
	path, err := drainpath.FindEulerian(g)
	if err != nil {
		return errSkip
	}
	next := make([]int, g.NumLinks())
	for id := range next {
		next[id] = path.NextID(id)
	}

	// Live fault plan (3/4 of seeds): fail one removable link mid-run
	// and restore it later, reconfiguring routing and the drain path on
	// the fly. A dedicated RNG keeps the traffic stream independent of
	// the plan.
	frng := rand.New(rand.NewPCG(seed^0xfa17, seed))
	active := g
	var failed topology.Edge
	faultAt, restoreAt := -1, -1
	if seed%4 != 3 {
		faultAt = 250 + frng.IntN(100)
		restoreAt = 700 + frng.IntN(100)
	}

	created, delivered, rejected := 0, 0, 0
	seen := map[int64]bool{}
	const horizon = 1200
	for cyc := 0; cyc < horizon; cyc++ {
		if cyc < horizon/2 && rng.Float64() < 0.5 {
			src := rng.IntN(nNodes)
			dst := rng.IntN(nNodes)
			if dst != src {
				class := rng.IntN(vnets)
				flits := 1 + rng.IntN(5)
				p := net.NewPacket(src, dst, class, flits)
				if net.Inject(p) {
					created++
				} else {
					// Failed injection leaves ownership with the caller;
					// recycle so the pool-safety invariants cover this path.
					net.ReleasePacket(p)
					rejected++
				}
			}
		}
		if faultAt >= 0 && cyc >= faultAt {
			faultAt = -1
			if cands := topology.RemovableEdges(active); len(cands) > 0 {
				failed = cands[frng.IntN(len(cands))]
				na, err := active.WithoutEdge(failed.A, failed.B)
				if err != nil {
					return fmt.Errorf("cycle %d: fail link %v: %w", cyc, failed, err)
				}
				tab, nx, err := buildReconfig(na, g)
				if err != nil {
					return errSkip
				}
				if _, err := net.Reconfigure(na, tab); err != nil {
					return fmt.Errorf("cycle %d: reconfigure: %w", cyc, err)
				}
				active, next = na, nx
			} else {
				restoreAt = -1
			}
		}
		if restoreAt >= 0 && faultAt < 0 && cyc >= restoreAt {
			restoreAt = -1
			na, err := active.WithEdge(failed.A, failed.B)
			if err != nil {
				return fmt.Errorf("cycle %d: restore link %v: %w", cyc, failed, err)
			}
			tab, nx, err := buildReconfig(na, g)
			if err != nil {
				return errSkip
			}
			if _, err := net.Reconfigure(na, tab); err != nil {
				return fmt.Errorf("cycle %d: restore reconfigure: %w", cyc, err)
			}
			active, next = na, nx
		}
		// Occasional drain window (keeps escape VCs moving and
		// exercises the rotation path under live traffic).
		if cfg.PolicyEscape && cyc%150 == 100 {
			net.SetFrozen(true)
		}
		net.Step()
		if cfg.PolicyEscape && cyc%150 == 110 && net.InflightCount() == 0 {
			if _, err := net.DrainRotate(next); err != nil {
				return fmt.Errorf("cycle %d: drain rotate: %w", cyc, err)
			}
			net.SetFrozen(false)
		}
		if cfg.PolicyEscape && cyc%150 == 130 && net.Frozen() {
			// Quiesce took longer than 10 cycles; release anyway.
			if net.InflightCount() == 0 {
				if _, err := net.DrainRotate(next); err != nil {
					return fmt.Errorf("cycle %d: late drain rotate: %w", cyc, err)
				}
			}
			net.SetFrozen(false)
		}
		for r := 0; r < nNodes; r++ {
			for c := 0; c < vnets; c++ {
				for p := net.PopEjected(r, c); p != nil; p = net.PopEjected(r, c) {
					if p.Dst != r {
						return fmt.Errorf("cycle %d: packet %d for %d ejected at %d", cyc, p.ID, p.Dst, r)
					}
					if seen[p.ID] {
						return fmt.Errorf("cycle %d: packet %d delivered twice", cyc, p.ID)
					}
					seen[p.ID] = true
					delivered++
					net.ReleasePacket(p)
				}
			}
		}
		if cyc%16 == 0 {
			if err := net.CheckInvariants(); err != nil {
				return fmt.Errorf("cycle %d: %w", cyc, err)
			}
		}
	}
	// Conservation: every created packet is delivered, still in the
	// system, or was explicitly dropped by a link failure (deadlocks can
	// strand packets; none may silently vanish).
	if delivered+net.InFlightPackets()+int(net.Counters.FaultDrops) != created {
		return fmt.Errorf("conservation: created=%d delivered=%d inflight=%d faultdrops=%d",
			created, delivered, net.InFlightPackets(), net.Counters.FaultDrops)
	}
	// Pool conservation: every release above is accounted for — rejected
	// injections and delivered packets recycled here, fault drops recycled
	// inside the network — and the free list can never exceed the total
	// ever recycled (a double release would break both identities, and
	// CheckInvariants already rejects it structurally).
	if want := int64(rejected+delivered) + net.Counters.FaultDrops; net.Counters.Recycled != want {
		return fmt.Errorf("pool: recycled=%d, want rejected(%d)+delivered(%d)+faultdrops(%d)=%d",
			net.Counters.Recycled, rejected, delivered, net.Counters.FaultDrops, want)
	}
	if free := net.PoolFree(); int64(free) > net.Counters.Recycled {
		return fmt.Errorf("pool: %d packets free but only %d ever recycled", free, net.Counters.Recycled)
	}
	return nil
}

// checkRotation verifies that rotating a fully loaded escape layer
// conserves every packet (no overwrite at any fan-in). Same contract as
// checkConservation.
func checkRotation(seed uint64, nRaw uint8) error {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcd))
	nNodes := int(nRaw%10) + 4
	g, err := topology.NewRandomConnected(nNodes, 4, rng)
	if err != nil {
		return errSkip
	}
	net, err := New(Config{
		Graph: g, VNets: 1, VCsPerVN: 1, Classes: 1,
		PolicyEscape:  true,
		Routing:       routing.AdaptiveMinimal,
		EscapeRouting: routing.AdaptiveMinimal,
		EjectCap:      1,
		Seed:          seed,
	})
	if err != nil {
		return errSkip
	}
	// Fill EVERY escape buffer.
	for _, l := range g.Links() {
		if _, err := net.PlacePacket(l.From, l.To, rng.IntN(nNodes), 0); err != nil {
			return fmt.Errorf("place packet on link %d->%d: %w", l.From, l.To, err)
		}
	}
	path, err := drainpath.FindEulerian(g)
	if err != nil {
		return errSkip
	}
	next := make([]int, g.NumLinks())
	for id := range next {
		next[id] = path.NextID(id)
	}
	before := net.InFlightPackets()
	net.SetFrozen(true)
	rep, err := net.DrainRotate(next)
	if err != nil {
		return fmt.Errorf("drain rotate: %w", err)
	}
	if err := net.CheckInvariants(); err != nil {
		return fmt.Errorf("after rotate: %w", err)
	}
	// All packets accounted for: moved + ejected == total, and the
	// network still holds total (ejections moved to queues).
	if rep.Moved+rep.Ejected != g.NumLinks() {
		return fmt.Errorf("rotate report: moved=%d ejected=%d links=%d", rep.Moved, rep.Ejected, g.NumLinks())
	}
	if got := net.InFlightPackets(); got != before {
		return fmt.Errorf("rotate lost packets: before=%d after=%d", before, got)
	}
	return nil
}

func TestConservationUnderRandomConfigs(t *testing.T) {
	f := func(seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) bool {
		err := checkConservation(seed, nRaw, vnRaw, vcRaw, escRaw)
		if err != nil && !errors.Is(err, errSkip) {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

func TestDrainRotationIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		err := checkRotation(seed, nRaw)
		if err != nil && !errors.Is(err, errSkip) {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}

// FuzzConservation is the native-fuzzing entry to the conservation
// property (CI runs it for a short smoke window; run locally with
// `go test -fuzz=FuzzConservation ./internal/noc`).
func FuzzConservation(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(0xdead), uint8(7), uint8(1), uint8(2), uint8(1))
	f.Add(uint64(42), uint8(11), uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, vnRaw, vcRaw, escRaw uint8) {
		if err := checkConservation(seed, nRaw, vnRaw, vcRaw, escRaw); err != nil && !errors.Is(err, errSkip) {
			t.Fatal(err)
		}
	})
}

// FuzzDrainRotation is the native-fuzzing entry to the rotation
// permutation property.
func FuzzDrainRotation(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(0xbeef), uint8(9))
	f.Add(uint64(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		if err := checkRotation(seed, nRaw); err != nil && !errors.Is(err, errSkip) {
			t.Fatal(err)
		}
	})
}
