package noc

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"drain/internal/routing"
	"drain/internal/topology"
)

// Directed tests of allocateRouter's uncontested exit: each builds the
// visit the exit is for — one matured head, nothing routed — in a
// situation where the exit must reach the general path's decision by
// another road, and holds the run to one that never takes the exit.

// loneRig is three networks built alike and driven alike: exit and
// general run the dense engine under the reference allocator, exit taking
// the uncontested exit wherever production does (refEngine.lone checks
// each one), general never; event is the production event engine, whose
// visits go through allocateRouter itself.
type loneRig struct {
	t                    *testing.T
	exit, general, event *Network
	refs                 [2]*refEngine
}

func newLoneRig(t *testing.T, build func(EngineKind) *Network) *loneRig {
	t.Helper()
	lr := &loneRig{t: t, exit: build(EngineDense), general: build(EngineDense), event: build(EngineEvent)}
	lr.refs = [2]*refEngine{withRefEngine(lr.exit), withRefEngine(lr.general)}
	lr.refs[1].noExit = true
	return lr
}

// do applies one external action to every network.
func (lr *loneRig) do(fn func(n *Network)) {
	for _, n := range []*Network{lr.exit, lr.general, lr.event} {
		fn(n)
	}
}

// place puts a packet of the given size in the VC that link from->to
// feeds, on every network, and returns the exit network's.
func (lr *loneRig) place(from, to, dst, slot, flits int) *Packet {
	lr.t.Helper()
	lr.do(func(n *Network) {
		p, err := n.PlacePacket(from, to, dst, slot)
		if err != nil {
			lr.t.Fatal(err)
		}
		p.Flits = flits
	})
	return lr.exit.LinkOccupant(mustLinkID(lr.t, lr.exit, from, to), slot)
}

// step advances every network one cycle and requires the reference to
// agree with each visit, the invariants to hold, and the three to be in
// the same state: slots (a departed head's included), masks, counters.
func (lr *loneRig) step() {
	lr.t.Helper()
	lr.do(func(n *Network) {
		n.Step()
		n.DiscardEjected()
		if err := n.CheckInvariants(); err != nil {
			lr.t.Fatalf("cycle %d: %v", n.cycle, err)
		}
	})
	for _, ref := range lr.refs {
		if ref.err != nil {
			lr.t.Fatal(ref.err)
		}
	}
	for _, other := range []*Network{lr.general, lr.event} {
		if err := compareBuffers(lr.exit, other); err != nil {
			lr.t.Fatalf("cycle %d: %v", lr.exit.cycle, err)
		}
		if !reflect.DeepEqual(lr.exit.Counters, other.Counters) {
			lr.t.Fatalf("cycle %d: counters diverge:\n%+v\n%+v", lr.exit.cycle, lr.exit.Counters, other.Counters)
		}
	}
}

// finish runs the networks empty and requires the exit to have drawn
// what the general path draws: the same stream position at the end.
func (lr *loneRig) finish() {
	lr.t.Helper()
	for i := 0; lr.exit.InFlightPackets() > 0; i++ {
		if i == 500 {
			lr.t.Fatalf("%d packets still in the network", lr.exit.InFlightPackets())
		}
		lr.step()
	}
	if lr.general.loneGrants != 0 || lr.event.loneGrants != lr.exit.loneGrants {
		lr.t.Errorf("uncontested grants: %d under the reference, %d in production, %d on the general path",
			lr.exit.loneGrants, lr.event.loneGrants, lr.general.loneGrants)
	}
	if x, g, e := lr.exit.rng.Uint64(), lr.general.rng.Uint64(), lr.event.rng.Uint64(); x != g || x != e {
		lr.t.Errorf("rng streams diverge: exit %#x, general path %#x, event engine %#x", x, g, e)
	}
}

// localHead returns the packet in router r's local port (the tests put at
// most one there).
func localHead(n *Network, r int) *Packet {
	for s := 0; s < n.vcPerPort; s++ {
		if p := n.LocalOccupant(r, s); p != nil {
			return p
		}
	}
	return nil
}

// isReady reports whether p heads a slot the general path has routed.
func isReady(n *Network, p *Packet) bool {
	b := int(n.ports[n.portOf(p.inLink, p.atRouter)].bit0) + p.slot
	return n.sub(p.atRouter, b>>6)[mReady]>>uint(b&63)&1 != 0
}

func meshRig(t *testing.T, w, h int, mutate func(*Config)) *loneRig {
	return newLoneRig(t, func(k EngineKind) *Network {
		return meshNet(t, w, h, func(c *Config) {
			c.Routing, c.Engine = routing.AdaptiveMinimal, k
			if mutate != nil {
				mutate(c)
			}
		})
	})
}

func TestLoneHeadBehindBusyLinkFallsBack(t *testing.T) {
	lr := meshRig(t, 4, 1, nil)
	lr.place(0, 1, 3, 1, 5)
	lr.step() // the exit starts a five-cycle transfer over 1->2
	if lr.exit.loneGrants != 1 {
		t.Fatalf("%d uncontested grants after the first head's visit, want 1", lr.exit.loneGrants)
	}
	h := lr.place(0, 1, 3, 0, 1)
	lr.step() // alone, but its only output is busy: the visit goes on and files it
	if lr.exit.loneGrants != 1 || !isReady(lr.exit, h) || lr.exit.slotOf(h).sending {
		t.Fatalf("head behind the busy link: %d uncontested grants, routed %v, sending %v",
			lr.exit.loneGrants, isReady(lr.exit, h), lr.exit.slotOf(h).sending)
	}
	for !lr.exit.slotOf(h).sending {
		lr.step()
	}
	if lr.exit.loneGrants != 1 {
		t.Errorf("the filed head left by the exit (%d uncontested grants)", lr.exit.loneGrants)
	}
	lr.finish()
}

func TestLoneLocalHeadConservativeRuleAndPatience(t *testing.T) {
	// Only the escape slot of 0->1 is free, so the conservative rule
	// refuses a head injected at router 0 until injectPatience runs out.
	setup := func(t *testing.T) (*loneRig, *Packet) {
		lr := newLoneRig(t, func(k EngineKind) *Network {
			return lineNet(t, 3, 1, 2, func(c *Config) {
				c.PolicyEscape, c.EscapeRouting, c.NonStickyEscape = true, routing.AdaptiveMinimal, true
				c.DerouteAfter, c.Engine = -1, k
			})
		})
		lr.do(func(n *Network) { fillEjectQueue(n, 2, 0) })
		lr.place(0, 1, 2, 1, 1)
		lr.place(1, 2, 2, 1, 1)
		lr.place(1, 2, 2, 0, 1)
		lr.do(func(n *Network) { n.Inject(n.NewPacket(0, 1, 0, 1)) })
		lr.step() // into the local VC
		return lr, localHead(lr.exit, 0)
	}
	t.Run("refused", func(t *testing.T) {
		lr, p := setup(t)
		lr.step()
		if lr.exit.loneGrants != 0 || !isReady(lr.exit, p) {
			t.Fatalf("%d uncontested grants, local head routed %v: the conservative rule was skipped", lr.exit.loneGrants, isReady(lr.exit, p))
		}
		for i := 0; i < injectPatience+10; i++ {
			lr.step() // patience runs out on the general path
		}
		if lr.exit.Counters.Ejected != 1 || lr.exit.loneGrants != 0 {
			t.Errorf("%d packets delivered, %d uncontested grants; want the local head alone, by the general path", lr.exit.Counters.Ejected, lr.exit.loneGrants)
		}
	})
	t.Run("admitted", func(t *testing.T) {
		lr, p := setup(t)
		lr.do(func(n *Network) { n.SetFrozen(true) })
		for i := 0; i < injectPatience+5; i++ {
			lr.step() // patience runs out unvisited
		}
		lr.do(func(n *Network) { n.SetFrozen(false) })
		lr.step()
		if lr.exit.loneGrants != 1 || !lr.exit.slotOf(p).sending {
			t.Fatalf("%d uncontested grants, local head sending %v", lr.exit.loneGrants, lr.exit.slotOf(p).sending)
		}
		lr.step()
		if p.inLink != mustLinkID(t, lr.exit, 0, 1) || p.slot != 0 {
			t.Errorf("bypassing head landed in link %d slot %d, want the escape slot of 0->1", p.inLink, p.slot)
		}
	})
}

func TestLoneHeadPrefersLowestOutputOverNonEscapeSlot(t *testing.T) {
	// The head at router 0 may take 0->1 or 0->3. 0->1, the lower link,
	// has only its escape slot left: the general path offers the head
	// there first, by the escape path, and so must the merged walk.
	lr := meshRig(t, 3, 3, func(c *Config) {
		c.PolicyEscape, c.EscapeRouting, c.NonStickyEscape = true, routing.AdaptiveMinimal, true
	})
	lr.do(func(n *Network) { fillEjectQueue(n, 1, 0) })
	lr.place(0, 1, 1, 1, 1)
	h := lr.place(3, 0, 4, 1, 1)
	lr.step()
	lr.step()
	if lr.exit.loneGrants != 1 || h.inLink != mustLinkID(t, lr.exit, 0, 1) || h.slot != 0 {
		t.Errorf("%d uncontested grants; head in link %d slot %d, want the escape slot of 0->1", lr.exit.loneGrants, h.inLink, h.slot)
	}
}

func TestLoneStickyEscapeHeadCarriesDownPhase(t *testing.T) {
	lr := meshRig(t, 3, 3, func(c *Config) { c.PolicyEscape, c.EscapeRouting = true, routing.UpDown })
	h := lr.place(1, 0, 8, 0, 1) // in an escape VC at the up*/down* root: every hop is down
	var sawDown bool
	lr.do(func(n *Network) {
		n.OnEject = func(p *Packet) { sawDown = sawDown || p.DownPhase && p.InEscape }
	})
	if !h.InEscape {
		t.Fatal("head placed in an escape VC is not sticky")
	}
	lr.finish()
	if !sawDown || lr.exit.loneGrants != 5 {
		t.Errorf("down phase carried to the destination: %v; %d uncontested grants, want 4 hops and the ejection", sawDown, lr.exit.loneGrants)
	}
}

func TestLoneHeadOverdueAfterFreezeDeroutes(t *testing.T) {
	lr := meshRig(t, 3, 3, nil)
	h := lr.place(1, 4, 8, 1, 1)
	lr.do(func(n *Network) { n.SetFrozen(true) })
	for i := 0; i < 10; i++ {
		lr.step() // DerouteAfter (8) passes with the head never visited
	}
	lr.do(func(n *Network) { n.SetFrozen(false) })
	lr.step()
	lr.step()
	// Any output will do for a stalled head, and 4->1 is the first.
	if lr.exit.loneGrants != 1 || h.atRouter != 1 || lr.exit.Counters.Misroutes != 1 {
		t.Errorf("%d uncontested grants, head at router %d, %d misroutes; want a deroute over 4->1",
			lr.exit.loneGrants, h.atRouter, lr.exit.Counters.Misroutes)
	}
	lr.finish()
}

func TestLoneHeadWithImmatureCompanions(t *testing.T) {
	lr := meshRig(t, 3, 3, nil)
	q := lr.place(0, 1, 7, 1, 1) // its only way on is 1->4
	lr.step()                    // q's transfer over 1->4 lands next cycle
	h := lr.place(3, 4, 8, 0, 1)
	granted := lr.exit.loneGrants
	lr.step() // q lands at router 4 before the visit, immature at it
	b := int(lr.exit.ports[mustLinkID(t, lr.exit, 1, 4)].bit0) + q.slot
	if lr.exit.loneGrants != granted+1 || !lr.exit.slotOf(h).sending || q.atRouter != 4 || lr.exit.sub(4, 0)[mPend]>>uint(b)&1 == 0 {
		t.Errorf("%d uncontested grants, matured head sending %v, companion at router %d, router 4 pending mask %b (companion is bit %d)",
			lr.exit.loneGrants-granted, lr.exit.slotOf(h).sending, q.atRouter, lr.exit.sub(4, 0)[mPend], b)
	}
	lr.finish()
}

func TestLoneHeadAfterReconfigureUsesRemappedTable(t *testing.T) {
	lr := meshRig(t, 3, 3, func(c *Config) { c.DerouteAfter = -1 })
	lr.place(3, 0, 2, 1, 5)
	lr.step() // 0->1 is now busy
	h := lr.place(3, 0, 2, 0, 1)
	lr.step()
	if !isReady(lr.exit, h) {
		t.Fatal("head behind the busy link was not filed")
	}
	active, err := lr.exit.g.WithoutEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, _, err := buildReconfig(active, lr.exit.g)
	if err != nil {
		t.Fatal(err)
	}
	lr.do(func(n *Network) {
		if _, err := n.Reconfigure(active, tab); err != nil {
			t.Fatal(err)
		}
	})
	granted := lr.exit.loneGrants
	if isReady(lr.exit, h) {
		t.Fatal("Reconfigure left the head routed")
	}
	lr.step()
	lr.step()
	if lr.exit.loneGrants != granted+1 || h.atRouter != 3 {
		t.Errorf("%d uncontested grants after the reconfiguration, head at router %d; want it to turn back over 0->3",
			lr.exit.loneGrants-granted, h.atRouter)
	}
	lr.finish()
}

// TestLoneExitShare keeps the exit from silently dying, or from growing
// into the contested case: at the paper's fig11 load nearly every grant
// is uncontested, at its fig10 saturation load nearly none (single-flit
// packets, as the synthetic figures use).
func TestLoneExitShare(t *testing.T) {
	for _, tc := range []struct {
		rate     float64
		min, max float64
	}{{0.02, 0.85, 1}, {0.45, 0, 0.02}} {
		m := topology.MustMesh(8, 8)
		n, err := New(Config{
			Graph: m.Graph, VNets: 1, VCsPerVN: 2, PolicyEscape: true, NonStickyEscape: true,
			Routing: routing.AdaptiveMinimal, EscapeRouting: routing.AdaptiveMinimal, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(2, 3))
		for cyc := 0; cyc < 20_000; cyc++ {
			for src := 0; src < 64; src++ {
				if dst := rng.IntN(64); dst != src && rng.Float64() < tc.rate {
					if p := n.NewPacket(src, dst, 0, 1); !n.Inject(p) {
						n.ReleasePacket(p)
					}
				}
			}
			n.Step()
			n.DiscardEjected()
		}
		share := float64(n.loneGrants) / float64(n.Counters.SWAllocs)
		t.Logf("rate %.2f: %d of %d grants (%.1f%%) by the uncontested exit", tc.rate, n.loneGrants, n.Counters.SWAllocs, 100*share)
		if share < tc.min || share > tc.max {
			t.Errorf("rate %.2f: %d of %d grants (%.1f%%) by the uncontested exit, want %.0f%%..%.0f%%",
				tc.rate, n.loneGrants, n.Counters.SWAllocs, 100*share, 100*tc.min, 100*tc.max)
		}
	}
}
