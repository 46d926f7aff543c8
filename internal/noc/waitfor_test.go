package noc

import (
	"slices"
	"testing"

	"drain/internal/drainpath"
	"drain/internal/routing"
	"drain/internal/topology"
)

// ringNet builds an n-router ring with adaptive routing, 1 VN × 1 VC and
// no protection — the minimal configuration in which real routing
// deadlocks form.
func ringNet(t *testing.T, n int) *Network {
	t.Helper()
	g, err := topology.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{
		Graph:        g,
		VNets:        1,
		VCsPerVN:     1,
		Classes:      1,
		Routing:      routing.AdaptiveMinimal,
		DerouteAfter: -1, // strict minimality: deadlocks form readily
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// plantPacket places a packet into a link VC buffer through PlacePacket
// (which seats it the one way every packet enters a buffer) and requires
// the planted state to pass CheckInvariants.
func plantPacket(t *testing.T, n *Network, from, to, dst, slot int) *Packet {
	t.Helper()
	p, err := n.PlacePacket(from, to, dst, slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("after planting %d->%d slot %d: %v", from, to, slot, err)
	}
	return p
}

// plantRingDeadlock fills every clockwise link buffer of an n-ring with a
// packet destined two hops further clockwise: each packet's only minimal
// output is the next clockwise link, which is occupied — a textbook
// routing deadlock.
func plantRingDeadlock(t *testing.T, n *Network, ringSize int) []*Packet {
	t.Helper()
	var pkts []*Packet
	for r := 0; r < ringSize; r++ {
		to := (r + 1) % ringSize
		dst := (r + 3) % ringSize // two hops beyond the buffer's router
		pkts = append(pkts, plantPacket(t, n, r, to, dst, 0))
	}
	return pkts
}

func TestEmptyNetworkHasNoDeadlock(t *testing.T) {
	n := ringNet(t, 6)
	if n.HasDeadlock() {
		t.Error("empty network reported deadlocked")
	}
	if w := n.waitFor(nil); slices.Contains(w.live[:w.aw], false) { // awaited nodes are never live
		t.Errorf("non-live nodes in empty network: %v", w.live[:w.aw])
	}
	if c := n.FindBlockedCycle(); c != nil {
		t.Errorf("cycle in empty network: %v", c)
	}
}

func TestPlantedRingDeadlockDetected(t *testing.T) {
	const ring = 6
	n := ringNet(t, ring)
	plantRingDeadlock(t, n, ring)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !n.HasDeadlock() {
		t.Fatal("planted deadlock not detected")
	}
	w, nonLive := n.waitFor(nil), 0
	for _, l := range w.live[:w.aw] {
		if !l {
			nonLive++
		}
	}
	if nonLive != ring {
		t.Errorf("non-live VCs = %d, want %d", nonLive, ring)
	}
	// Left alone, the network cannot make progress.
	n.Step()
	for i := 0; i < 50; i++ {
		n.Step()
	}
	if n.Counters.Hops != 0 || n.Counters.Ejected != 0 {
		t.Error("deadlocked packets moved without intervention")
	}
}

func TestSingleBlockedPacketIsLive(t *testing.T) {
	// A packet waiting on an occupied buffer that can itself drain is
	// live: no deadlock.
	n := ringNet(t, 6)
	plantPacket(t, n, 0, 1, 3, 0) // wants link 1->2
	plantPacket(t, n, 1, 2, 3, 0) // at 2, wants 2->3 which is free
	if n.HasDeadlock() {
		t.Error("live chain misreported as deadlock")
	}
}

func TestEjectQueueFullLiveness(t *testing.T) {
	n := ringNet(t, 6)
	// Packet at its destination with a full eject queue.
	p := plantPacket(t, n, 0, 1, 1, 0)
	for i := 0; i < n.cfg.EjectCap; i++ {
		n.ejQ[1][0].Push(n.NewPacket(0, 1, 0, 1))
	}
	// With ejection treated as a live sink, no deadlock.
	if n.HasDeadlock() {
		t.Error("sink-class packet misreported as deadlocked")
	}
	// With no class a sink, it is non-live.
	if n.waitFor(sinkMask{false}).live[p.inLink*n.vcPerPort] {
		t.Error("full eject queue should be non-live under strict semantics")
	}
}

func TestFindBlockedCycleIsRotatable(t *testing.T) {
	const ring = 6
	n := ringNet(t, ring)
	plantRingDeadlock(t, n, ring)
	refs := n.FindBlockedCycle()
	if len(refs) == 0 {
		t.Fatal("no cycle found in planted deadlock")
	}
	if err := n.RotateBlockedCycle(refs); err != nil {
		t.Fatalf("rotation rejected: %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// One rotation moves every deadlocked packet one hop closer (ring
	// deadlock: all moves are productive), so the deadlock breaks after
	// packets start reaching destinations.
	delivered := 0
	for i := 0; i < 200; i++ {
		n.Step()
		for r := 0; r < ring; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				delivered++
			}
		}
		if !n.HasDeadlock() && n.InFlightPackets() == 0 {
			break
		}
		if n.HasDeadlock() {
			if refs := n.FindBlockedCycle(); refs != nil {
				if err := n.RotateBlockedCycle(refs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if delivered != ring {
		t.Errorf("delivered %d of %d deadlocked packets", delivered, ring)
	}
}

// TestMoveTargetsPreferProductive holds the wait-for edges of a head to
// their definition, built from the routing table directly: the main and
// escape lookups — AllOutputs for a head that may deroute, the routing
// function's Candidates otherwise — each sorted productive-first (stably,
// so each half keeps the table's order) and expanded into the VCs the
// packet may take: the non-escape VCs of its VN (all of them without an
// escape VC), then the escape VC; a packet sticky in the escape VC only
// there, under the escape function. The cases cover both head-mask
// layouts (escape lookups shared with the main ones, or their own under
// up*/down* and XY), an escape-only VN and strict minimal routing.
func TestMoveTargetsPreferProductive(t *testing.T) {
	faulty, err := topology.MustMesh(4, 4).WithoutEdge(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	mesh := topology.MustMesh(4, 4)
	productiveFirst := func(a, b routing.Candidate) int {
		switch {
		case a.Productive() == b.Productive():
			return 0
		case a.Productive():
			return -1
		}
		return 1
	}
	am := routing.AdaptiveMinimal
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no escape", Config{Graph: faulty, VCsPerVN: 3}},
		{"sticky escape", Config{Graph: faulty, VCsPerVN: 3, PolicyEscape: true, EscapeRouting: am}},
		{"shared escape", Config{Graph: faulty, VCsPerVN: 3, PolicyEscape: true, EscapeRouting: am, NonStickyEscape: true}},
		{"escape VC only", Config{Graph: faulty, VCsPerVN: 1, PolicyEscape: true, EscapeRouting: am}},
		{"up*/down* escape", Config{Graph: faulty, VNets: 2, VCsPerVN: 2, PolicyEscape: true, EscapeRouting: routing.UpDown}},
		{"XY escape", Config{Graph: mesh.Graph, Mesh: mesh, VCsPerVN: 2, PolicyEscape: true, EscapeRouting: routing.XY, NonStickyEscape: true}},
		{"strictly minimal", Config{Graph: faulty, VCsPerVN: 3, PolicyEscape: true, EscapeRouting: am, DerouteAfter: -1}},
	} {
		cfg := tc.cfg
		cfg.Routing, cfg.Classes, cfg.Seed = am, max(cfg.VNets, 1), 1
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg, tab := n.Config(), n.Table()
		lookup := func(k routing.Kind, at, dst int, down bool) []routing.Candidate {
			if cfg.DerouteAfter > 0 && k == am {
				return tab.AllOutputs(at, dst)
			}
			return tab.Candidates(k, at, dst, down)
		}
		for vn := 0; vn < cfg.VNets; vn++ {
			for _, inEscape := range []bool{false, true} {
				if inEscape && (!cfg.PolicyEscape || cfg.NonStickyEscape) {
					continue
				}
				for _, down := range []bool{false, true} {
					for at := 0; at < n.g.N(); at++ {
						for dst := 0; dst < n.g.N(); dst++ {
							if at == dst {
								continue
							}
							var want []int
							expand := func(cands []routing.Candidate, lo, hi int) {
								sorted := slices.Clone(cands)
								slices.SortStableFunc(sorted, productiveFirst)
								for _, c := range sorted {
									for s := lo; s < hi; s++ {
										want = append(want, c.LinkID()*n.vcPerPort+vn*cfg.VCsPerVN+s)
									}
								}
							}
							switch {
							case !cfg.PolicyEscape:
								expand(lookup(cfg.Routing, at, dst, down), 0, cfg.VCsPerVN)
							case inEscape:
								expand(lookup(cfg.EscapeRouting, at, dst, down), 0, 1)
							default:
								expand(lookup(cfg.Routing, at, dst, down), 1, cfg.VCsPerVN)
								expand(lookup(cfg.EscapeRouting, at, dst, false), 0, 1)
							}
							p := &Packet{Dst: dst, VNet: vn, InEscape: inEscape, DownPhase: down}
							if got := n.moveTargets(p, at, nil); !slices.Equal(got, want) {
								t.Fatalf("%s: VN %d inEscape=%v down=%v at %d dst %d: moveTargets = %v, want %v",
									tc.name, vn, inEscape, down, at, dst, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestRotateBlockedCycleValidation(t *testing.T) {
	n := ringNet(t, 6)
	if err := n.RotateBlockedCycle(nil); err == nil {
		t.Error("empty cycle should fail")
	}
	l01, _ := n.g.LinkID(0, 1)
	l12, _ := n.g.LinkID(1, 2)
	// Empty buffers.
	if err := n.RotateBlockedCycle([]VCRef{{Link: l01}, {Link: l12}}); err == nil {
		t.Error("rotation of empty buffers should fail")
	}
	// Non-adjacent refs.
	plantPacket(t, n, 0, 1, 4, 0)
	l34, _ := n.g.LinkID(3, 4)
	plantPacket(t, n, 3, 4, 0, 0)
	if err := n.RotateBlockedCycle([]VCRef{{Link: l01}, {Link: l34}}); err == nil {
		t.Error("rotation across non-adjacent links should fail")
	}
}

func TestDrainRotateRequiresFreezeAndQuiesce(t *testing.T) {
	n := ringNet(t, 6)
	path, err := drainpath.FindEulerian(n.g)
	if err != nil {
		t.Fatal(err)
	}
	next := nextTable(path, n.g)
	if _, err := n.DrainRotate(next); err == nil {
		t.Error("drain without freeze should fail")
	}
	// In-flight packet blocks the drain.
	p := n.NewPacket(0, 3, 0, 5)
	n.Inject(p)
	for i := 0; i < 10 && n.InflightCount() == 0; i++ {
		n.Step()
	}
	n.SetFrozen(true)
	if _, err := n.DrainRotate(next); err == nil {
		t.Error("drain with in-flight transfer should fail")
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if _, err := n.DrainRotate(next); err != nil {
		t.Errorf("drain on quiesced frozen network failed: %v", err)
	}
}

func nextTable(p *drainpath.Path, g *topology.Graph) []int {
	next := make([]int, g.NumLinks())
	for id := range next {
		next[id] = p.NextID(id)
	}
	return next
}

func TestDrainRotateBreaksPlantedDeadlock(t *testing.T) {
	const ring = 6
	n := ringNet(t, ring)
	pkts := plantRingDeadlock(t, n, ring)
	path, err := drainpath.FindEulerian(n.g)
	if err != nil {
		t.Fatal(err)
	}
	next := nextTable(path, n.g)
	n.SetFrozen(true)
	deadline := 4 * ring // drains needed is bounded by the cycle length
	for i := 0; i < deadline && n.HasDeadlock(); i++ {
		if _, err := n.DrainRotate(next); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if n.HasDeadlock() {
		t.Fatal("drain rotations did not break the deadlock")
	}
	n.SetFrozen(false)
	// All packets must now drain out under normal operation (with
	// further drains if the deadlock re-forms).
	delivered := 0
	for i := 0; i < 500 && delivered < len(pkts); i++ {
		n.Step()
		for r := 0; r < ring; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				delivered++
			}
		}
		if i%20 == 19 && n.HasDeadlock() {
			n.SetFrozen(true)
			if _, err := n.DrainRotate(next); err != nil {
				t.Fatal(err)
			}
			n.SetFrozen(false)
		}
	}
	if delivered != len(pkts) {
		t.Errorf("delivered %d of %d", delivered, len(pkts))
	}
}

func TestDrainRotateOnMeshWithEscapePolicy(t *testing.T) {
	// DRAIN's real configuration: escape policy with unrestricted escape
	// routing on a mesh; drains must only touch escape VCs.
	m := topology.MustMesh(3, 3)
	n, err := New(Config{
		Graph: m.Graph, Mesh: m,
		VNets: 1, VCsPerVN: 2, Classes: 1,
		PolicyEscape:  true,
		Routing:       routing.AdaptiveMinimal,
		EscapeRouting: routing.AdaptiveMinimal,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Escape slot occupant and a non-escape occupant on the same link.
	esc := plantPacket(t, n, 0, 1, 5, 0)
	non := plantPacket(t, n, 0, 1, 5, 1)
	path, err := drainpath.FindEulerian(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	n.SetFrozen(true)
	rep, err := n.DrainRotate(nextTable(path, m.Graph))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved+rep.Ejected != 1 {
		t.Errorf("drain affected %d packets, want 1 (escape only)", rep.Moved+rep.Ejected)
	}
	if non.Hops != 0 {
		t.Error("non-escape packet was drained")
	}
	if esc.Hops != 1 && esc.EjectedAt == 0 {
		t.Error("escape packet did not move")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveNetworkDeadlocksUnderSaturation(t *testing.T) {
	// The paper's motivating observation: unprotected fully adaptive
	// routing deadlocks under load (Fig. 3 uses exactly this setup).
	g := topology.MustMesh(4, 4).Graph
	n, err := New(Config{
		Graph: g, VNets: 1, VCsPerVN: 1, Classes: 1,
		Routing: routing.AdaptiveMinimal, Seed: 5, EjectCap: 2,
		DerouteAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rngDst := func(c, r int) int {
		d := (r*7 + c*13 + 5) % 16
		if d == r {
			d = (d + 1) % 16
		}
		return d
	}
	deadlocked := false
	for c := 0; c < 4000 && !deadlocked; c++ {
		for r := 0; r < 16; r++ {
			n.Inject(n.NewPacket(r, rngDst(c, r), 0, 1))
		}
		n.Step()
		for r := 0; r < 16; r++ {
			n.PopEjected(r, 0)
		}
		if c%50 == 0 {
			deadlocked = n.HasDeadlock()
		}
	}
	if !deadlocked {
		t.Error("saturated unprotected adaptive 4x4 with 1 VC never deadlocked")
	}
}

func TestExplainStallRoutingCycle(t *testing.T) {
	const ring = 6
	n := ringNet(t, ring)
	if x := n.ExplainStall(nil); x.Kind != NoStall || x.Nodes != nil || x.Oldest.Kind != 0 {
		t.Errorf("empty network explained as %+v", x)
	}
	pkts := plantRingDeadlock(t, n, ring)
	x := n.ExplainStall(nil)
	if x.Kind != RoutingCycle || x.Loop != 0 || len(x.Nodes) != ring {
		t.Fatalf("planted ring deadlock explained as %v, loop %d over %v; want a routing cycle of %d link VCs", x.Kind, x.Loop, x.Nodes, ring)
	}
	for i, w := range x.Nodes {
		// Each packet waits on the next clockwise link's buffer.
		next := x.Nodes[(i+1)%ring]
		if w.Kind != LinkVC || n.g.Link(w.Link).From != (w.Router+ring-1)%ring || next.Router != (w.Router+1)%ring {
			t.Errorf("node %d is %v, then %v; want clockwise link VCs", i, w, next)
		}
	}
	if x.Oldest.Packet.ID != pkts[0].ID || x.MostHops.Packet.ID != pkts[0].ID {
		t.Errorf("oldest %v, most hops %v; want the first planted packet for both (all tie)", x.Oldest, x.MostHops)
	}
}

// awaitConsumer's every non-empty ejection queue head awaits packet p.
type awaitConsumer struct{ p *Packet }

func (c awaitConsumer) HeadWait(r, class int) (int, func(*Packet) bool, bool) {
	return -1, func(q *Packet) bool { return q == c.p }, true
}

func TestExplainStallHeadOfLine(t *testing.T) {
	n := ringNet(t, 6)
	// Router 1's ejection queue is full, its head awaiting a packet that
	// is free to move, and a packet at 1 waits to eject behind it.
	plantPacket(t, n, 0, 1, 1, 0)
	for i := 0; i < n.cfg.EjectCap; i++ {
		n.ejQ[1][0].Push(n.NewPacket(0, 1, 0, 1))
	}
	awaited := plantPacket(t, n, 3, 4, 0, 0)
	if x := n.ExplainStall(nil); x.Kind != NoStall {
		t.Errorf("with every ejection queue a sink: %v over %v, want no stall", x.Kind, x.Nodes)
	}
	x := n.ExplainStall(awaitConsumer{awaited})
	if x.Kind != HeadOfLine || x.Loop >= 0 || len(x.Nodes) != 2 {
		t.Fatalf("%v, loop %d over %v; want the head of line at router 1", x.Kind, x.Loop, x.Nodes)
	}
	q, w := x.Nodes[0], x.Nodes[1]
	if q.Kind != EjQueue || q.Router != 1 || q.Len != n.cfg.EjectCap ||
		w.Kind != Awaited || w.Router != 4 || w.Link != awaited.inLink || w.Packet.ID != awaited.ID {
		t.Errorf("named %v awaiting %v; want router 1's full ejection queue awaiting %v", q, w, awaited)
	}
}

// TestAwaitedPacketInInjectionQueue: an ejection queue whose head awaits
// a packet no VC holds waits on the injection queue that holds it, at any
// position; a packet found nowhere is assumed to come.
func TestAwaitedPacketInInjectionQueue(t *testing.T) {
	n := ringNet(t, 6)
	n.ejQ[1][0].Push(n.NewPacket(0, 1, 0, 1))
	n.Inject(n.NewPacket(3, 4, 0, 1))
	awaited := n.NewPacket(3, 1, 0, 1)
	w := n.waitFor(awaitConsumer{awaited})
	if q := w.ej + 1; !w.live[q] || w.targets[q] != nil {
		t.Errorf("a head awaiting a packet found nowhere: live %v, waiting on %v; want live, on nothing", w.live[q], w.targets[q])
	}
	n.Inject(awaited)
	w = n.waitFor(awaitConsumer{awaited})
	if q := w.ej + 1; !slices.Equal(w.targets[q], []int{w.inj + 3}) {
		t.Errorf("the head waits on %v; want router 3's injection queue, node %d", w.targets[q], w.inj+3)
	}
}

// TestLeafInjectionBlock: with one VC per VN and no escape VC, a local
// packet bound for a router of degree 1 enters the leaf's one input
// buffer. The conservative admission wants the downstream router to keep
// two free input buffers in the VN, or all it has when that is fewer, so
// the packet ejects at cycle 5 as it does with two VCs per VN. While the
// leaf's buffer holds a packet that cannot eject, the local packet waits,
// and both eject once the leaf's ejection queue empties.
func TestLeafInjectionBlock(t *testing.T) {
	for _, vcs := range []int{1, 2} {
		n := lineNet(t, 3, 1, vcs, func(c *Config) { c.DerouteAfter = -1 })
		p := n.NewPacket(1, 2, 0, 1)
		n.Inject(p)
		for n.Cycle() < 100 && n.Counters.Ejected == 0 {
			n.Step()
		}
		if p.EjectedAt != 5 {
			t.Errorf("with %d VCs the packet ejected at cycle %d, want 5", vcs, p.EjectedAt)
		}
	}
	n := lineNet(t, 3, 1, 1, func(c *Config) { c.DerouteAfter = -1 })
	held := plantPacket(t, n, 1, 2, 2, 0)
	for range n.cfg.EjectCap {
		n.ejQ[2][0].Push(n.NewPacket(1, 2, 0, 1))
	}
	p := n.NewPacket(1, 2, 0, 1)
	n.Inject(p)
	for range 20 {
		n.Step()
	}
	if n.LocalOccupant(1, 0) != p || held.EjectedAt != 0 {
		t.Fatalf("with the leaf's buffer held, the local packet left its local VC or the held one ejected")
	}
	for n.Cycle() < 100 && p.EjectedAt == 0 {
		for n.PopEjected(2, 0) != nil {
		}
		n.Step()
	}
	if held.EjectedAt == 0 || p.EjectedAt == 0 {
		t.Errorf("after the leaf's ejection queue emptied: held ejected at %d, local at %d; want both", held.EjectedAt, p.EjectedAt)
	}
}
