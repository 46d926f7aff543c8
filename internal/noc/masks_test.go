package noc

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"drain/internal/drainpath"
	"drain/internal/routing"
	"drain/internal/topology"
)

// Directed tests of the head masks' invalidation paths: each drives a
// loaded network into one of the events that changes a routed head's
// candidates behind the allocator's back, then requires CheckInvariants'
// recomputation to agree at once and the reference scan (refEngine) to
// agree at every router visit afterwards.

// maskNet is a 4x4 mesh on the dense engine with the reference allocator
// beside it: sticky turn-restricted escape VCs beside adaptive routing
// that deroutes after 3 stalled cycles, so a waiting head's candidates
// change with time.
func maskNet(t *testing.T, escape routing.Kind) (*Network, *refEngine) {
	t.Helper()
	n := meshNet(t, 4, 4, func(c *Config) {
		c.Engine = EngineDense
		c.PolicyEscape = true
		c.Routing = routing.AdaptiveMinimal
		c.EscapeRouting = escape
		c.DerouteAfter = 3
	})
	return n, withRefEngine(n)
}

// load injects uniform random traffic at rate for the given cycles,
// checking the reference at every step.
func load(t *testing.T, n *Network, ref *refEngine, rng *rand.Rand, rate float64, cycles int) {
	t.Helper()
	nodes := n.g.N()
	for c := 0; c < cycles; c++ {
		for src := 0; src < nodes; src++ {
			if dst := rng.IntN(nodes); dst != src && rng.Float64() < rate {
				if p := n.NewPacket(src, dst, 0, 1+rng.IntN(4)); !n.Inject(p) {
					n.ReleasePacket(p)
				}
			}
		}
		stepChecked(t, n, ref)
	}
}

func stepChecked(t *testing.T, n *Network, ref *refEngine) {
	t.Helper()
	n.Step()
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	n.DiscardEjected()
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", n.cycle, err)
	}
}

// countHeads returns how many heads are in the given router mask across
// the network, and how many of those satisfy keep (given each head's slot
// and reroute time).
func countHeads(n *Network, kind int, keep func(*vcSlot, int64) bool) (total, kept int) {
	for r := 0; r < n.g.N(); r++ {
		for w := 0; w < n.maskW; w++ {
			for m := n.sub(r, w)[kind]; m != 0; m &= m - 1 {
				total++
				if b := w<<6 + bits.TrailingZeros64(m); keep(n.head(r, b), n.rerouteAt[int(n.heads[r])+b]) {
					kept++
				}
			}
		}
	}
	return total, kept
}

func TestThresholdsCrossedWhileFrozen(t *testing.T) {
	n, ref := maskNet(t, routing.XY)
	rng := rand.New(rand.NewPCG(3, 5))
	load(t, n, ref, rng, 0.5, 200)
	n.SetFrozen(true)
	for i := 0; i < 12; i++ { // no router is visited: deroute thresholds pass unseen
		stepChecked(t, n, ref)
	}
	timed, overdue := countHeads(n, mTimed, func(_ *vcSlot, at int64) bool { return at <= n.cycle })
	if overdue == 0 {
		t.Fatalf("%d timed heads, none crossed a threshold during the freeze: the test shows nothing", timed)
	}
	n.SetFrozen(false)
	load(t, n, ref, rng, 0.3, 100)
	if _, overdue = countHeads(n, mTimed, func(_ *vcSlot, at int64) bool { return at <= n.cycle }); overdue != 0 {
		t.Errorf("%d heads still overdue for rerouting after visits", overdue)
	}
}

func TestReconfigureUnroutesHeads(t *testing.T) {
	n, ref := maskNet(t, routing.UpDown) // XY is not rebuilt on a faulted mesh
	rng := rand.New(rand.NewPCG(7, 11))
	load(t, n, ref, rng, 0.5, 150)
	if ready, _ := countHeads(n, mReady, func(*vcSlot, int64) bool { return true }); ready == 0 {
		t.Fatal("no routed heads to un-route")
	}
	// Fail the link whose input port holds the most waiting heads, so
	// evacuate moves routed heads too.
	victim, most := 0, -1
	for l := 0; l < n.g.NumLinks(); l++ {
		c := 0
		for s := 0; s < n.vcPerPort; s++ {
			if slot := n.slot(l, s); slot.pkt != nil && !slot.sending {
				c++
			}
		}
		if c > most {
			victim, most = l, c
		}
	}
	link := n.g.Link(victim)
	active, err := n.g.WithoutEdge(link.From, link.To)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := buildReconfig(active, n.g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Reconfigure(active, tab)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted == 0 {
		t.Errorf("no buffered packet was evacuated (report %+v)", rep)
	}
	if ready, _ := countHeads(n, mReady, func(*vcSlot, int64) bool { return true }); ready != 0 {
		t.Errorf("%d heads still routed by the old table", ready)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	load(t, n, ref, rng, 0.3, 150)
}

func TestRotationsMoveRoutedHeads(t *testing.T) {
	n, ref := maskNet(t, routing.XY)
	rng := rand.New(rand.NewPCG(13, 17))
	load(t, n, ref, rng, 0.6, 300)
	path, err := drainpath.FindEulerian(n.g)
	if err != nil {
		t.Fatal(err)
	}
	n.SetFrozen(true)
	for n.InflightCount() > 0 {
		stepChecked(t, n, ref)
	}
	escape := func(s *vcSlot, _ int64) bool { return s.pkt.inLink != LocalPort && n.cfg.IsEscapeSlot(s.pkt.slot) }
	if _, routed := countHeads(n, mReady, escape); routed == 0 {
		t.Fatal("no routed head in an escape VC: the drain rotation would move only pending ones")
	}
	rep, err := n.DrainRotate(nextTable(path, n.g))
	if err != nil || rep.Moved == 0 {
		t.Fatalf("drain rotation: %+v, %v", rep, err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, routed := countHeads(n, mReady, escape); routed != 0 {
		t.Errorf("%d rotated heads kept their old router's route", routed)
	}
	n.SetFrozen(false)
	load(t, n, ref, rng, 0.3, 100)

	// SPIN's rotation, on routed heads: a planted ring deadlock, visited
	// once so every head is ready (and blocked) before it is rotated.
	ring := ringNet(t, 6)
	rref := withRefEngine(ring)
	plantRingDeadlock(t, ring, 6)
	stepChecked(t, ring, rref)
	cyc := ring.FindBlockedCycle()
	if ready, _ := countHeads(ring, mReady, func(*vcSlot, int64) bool { return true }); len(cyc) == 0 || ready < len(cyc) {
		t.Fatalf("blocked cycle of %d, %d routed heads", len(cyc), ready)
	}
	if err := ring.RotateBlockedCycle(cyc); err != nil {
		t.Fatal(err)
	}
	if err := ring.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		stepChecked(t, ring, rref)
	}
}

// TestSlotReusedByEjectingHead is the stale-want-bits case: a routed head
// leaves its slot and a head bound for this very router takes it. Bits
// the first head left on an output would make the second an option there.
func TestSlotReusedByEjectingHead(t *testing.T) {
	n := lineNet(t, 3, 1, 2, func(c *Config) { c.Engine = EngineDense })
	ref := withRefEngine(n)
	if _, err := n.PlacePacket(0, 1, 2, 1); err != nil { // routed at router 1, wants 1->2
		t.Fatal(err)
	}
	stepChecked(t, n, ref)
	for n.LinkOccupant(mustLinkID(t, n, 0, 1), 1) != nil {
		stepChecked(t, n, ref)
	}
	if _, err := n.PlacePacket(0, 1, 1, 1); err != nil { // same slot, ejects at router 1
		t.Fatal(err)
	}
	if _, err := n.PlacePacket(0, 1, 2, 0); err != nil { // installed beside routed state
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		stepChecked(t, n, ref)
	}
	if n.Counters.Ejected != 3 {
		t.Errorf("ejected %d packets, want 3", n.Counters.Ejected)
	}
}

// TestWideRouterUsesSeveralWords pins the hub of alloc_ref_test's 70-port
// case at three mask words, with heads beyond the first — a lone one
// there included.
func TestWideRouterUsesSeveralWords(t *testing.T) {
	n, err := New(Config{Graph: hubGraph(t, 71), VNets: 1, VCsPerVN: 2, Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if n.maskW != 3 {
		t.Fatalf("70 in-links x 2 VCs + local port need 3 words, have %d", n.maskW)
	}
	if _, err := n.PlacePacket(70, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if n.sub(0, 2)[mPend] == 0 {
		t.Error("the last in-link's head is not in the third word")
	}
	stepChecked(t, n, withRefEngine(n))
	if n.loneGrants != 1 {
		t.Error("the lone head in the third word did not take the uncontested exit")
	}
}

// TestEscapeMaskLayout pins which configurations share one candidate mask
// per output between the main and the escape path. DRAIN's unrestricted,
// non-sticky escape VC does: through a saturated run its escape masks
// stay empty at every cycle. Escape VCs with lists of their own — sticky,
// or turn-restricted by XY or up*/down* — do not, and fill them.
func TestEscapeMaskLayout(t *testing.T) {
	for _, tc := range []struct {
		name   string
		escape routing.Kind
		sticky bool
		shared bool
	}{
		{"drain", routing.AdaptiveMinimal, false, true},
		{"drain-sticky", routing.AdaptiveMinimal, true, false},
		{"escape-xy", routing.XY, true, false},
		{"escape-updown", routing.UpDown, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := meshNet(t, 4, 4, func(c *Config) {
				c.Engine = EngineDense
				c.PolicyEscape, c.NonStickyEscape = true, !tc.sticky
				c.Routing, c.EscapeRouting = routing.AdaptiveMinimal, tc.escape
			})
			if shared := n.escMask == mMain; shared != tc.shared {
				t.Fatalf("shared escape masks: %v, want %v", shared, tc.shared)
			}
			ref, rng := withRefEngine(n), rand.New(rand.NewPCG(19, 23))
			used := 0
			for c := 0; c < 400; c++ {
				load(t, n, ref, rng, 0.5, 1)
				for r := 0; r < n.g.N(); r++ {
					for w := 0; w < n.maskW; w++ {
						blk := n.sub(r, w)
						for _, l := range n.g.OutLinks(r) {
							for _, k := range []int{mEsc, mEscDetour, mEscDown} {
								used += bits.OnesCount64(blk[int(n.lbase[l])+k])
							}
						}
					}
				}
			}
			if tc.shared && used != 0 {
				t.Errorf("%d escape-mask bits set in the shared layout", used)
			}
			if !tc.shared && used == 0 {
				t.Error("the escape masks stayed empty: the run routed nothing by the escape path")
			}
			if n.Counters.Misroutes == 0 {
				t.Error("no head derouted: the run never reached saturation")
			}
		})
	}
}

// TestUpDownEscapeKeepsItsOwnMasks: up*/down* reads the packet's phase,
// so a non-sticky escape VC routed by up*/down* like the main VCs still
// files its own lists. A head in its down phase may take only down links
// into a main VC, while entering the escape VC starts a fresh walk. The
// two lists rarely differ (never on a mesh or a ring), so the test
// searches random graphs for a router where they do.
func TestUpDownEscapeKeepsItsOwnMasks(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g, err := topology.NewRandomConnected(10, 3, rand.New(rand.NewPCG(seed, seed)))
		if err != nil {
			continue
		}
		n, err := New(Config{Graph: g, Routing: routing.UpDown, EscapeRouting: routing.UpDown, PolicyEscape: true, NonStickyEscape: true})
		if err != nil {
			t.Fatal(err)
		}
		if n.escMask == mMain {
			t.Fatal("up*/down* escape shares the main masks")
		}
		for _, l := range g.Links() {
			for dst := 0; dst < g.N(); dst++ {
				down := n.tab.Candidates(routing.UpDown, l.To, dst, true)
				up := n.tab.Candidates(routing.UpDown, l.To, dst, false)
				if len(down) == 0 || slices.Equal(down, up) {
					continue
				}
				p, err := n.PlacePacket(l.From, l.To, dst, 1)
				if err != nil {
					t.Fatal(err)
				}
				p.DownPhase = true
				b := int(n.ports[l.ID].bit0) + 1
				blk := make([]uint64, len(n.sub(l.To, b>>6)))
				n.route(blk, l.To, n.head(l.To, b), n.cycle, 1<<uint(b&63))
				for _, set := range []struct {
					kind  int
					cands []routing.Candidate
				}{{mMain, down}, {mEsc, up}} {
					for _, out := range g.OutLinks(l.To) {
						named := blk[int(n.lbase[out])+set.kind]>>uint(b&63)&1 != 0
						want := slices.ContainsFunc(set.cands, func(c routing.Candidate) bool { return c.LinkID() == out })
						if named != want {
							t.Errorf("graph %d: mask %d names output %d: %v, its list: %v", seed, set.kind, out, named, want)
						}
					}
				}
				return
			}
		}
	}
	t.Fatal("no router where the phases' lists differ")
}
