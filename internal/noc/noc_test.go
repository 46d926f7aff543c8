package noc

import (
	"fmt"
	"slices"
	"testing"

	"drain/internal/routing"
	"drain/internal/topology"
)

// meshNet builds a small XY-routed network (deadlock-free baseline used
// by the functional tests).
func meshNet(t *testing.T, w, h int, mutate func(*Config)) *Network {
	t.Helper()
	m := topology.MustMesh(w, h)
	cfg := Config{
		Graph:    m.Graph,
		Mesh:     m,
		VNets:    1,
		VCsPerVN: 2,
		Classes:  1,
		Routing:  routing.XY,
		Seed:     42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runUntilEjected steps the network until the packet count has been
// ejected (and consumed) or maxCycles elapse; returns ejected packets.
func runUntilEjected(t *testing.T, n *Network, want, maxCycles int) []*Packet {
	t.Helper()
	var got []*Packet
	for c := 0; c < maxCycles && len(got) < want; c++ {
		n.Step()
		for r := 0; r < n.Graph().N(); r++ {
			for cl := 0; cl < n.Config().Classes; cl++ {
				for p := n.PopEjected(r, cl); p != nil; p = n.PopEjected(r, cl) {
					got = append(got, p)
				}
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", n.Cycle(), err)
		}
	}
	return got
}

func TestSinglePacketDelivery(t *testing.T) {
	n := meshNet(t, 4, 4, nil)
	p := n.NewPacket(0, 15, 0, 1)
	if !n.Inject(p) {
		t.Fatal("inject failed")
	}
	got := runUntilEjected(t, n, 1, 200)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0] != p {
		t.Fatal("wrong packet delivered")
	}
	if p.Hops != 6 {
		t.Errorf("hops = %d, want 6 (XY is minimal)", p.Hops)
	}
	if p.Misroutes != 0 {
		t.Errorf("misroutes = %d, want 0", p.Misroutes)
	}
	if p.EjectedAt <= p.InjectedAt {
		t.Errorf("ejected at %d, injected at %d", p.EjectedAt, p.InjectedAt)
	}
	if n.InFlightPackets() != 0 {
		t.Errorf("network still holds %d packets", n.InFlightPackets())
	}
}

func TestZeroLoadLatencyScalesWithDistance(t *testing.T) {
	// One hop costs routerLatency + flits serialization; total latency
	// must grow linearly in hop count at zero load.
	lat := func(dst int) int64 {
		n := meshNet(t, 8, 1, nil)
		p := n.NewPacket(0, dst, 0, 1)
		n.Inject(p)
		got := runUntilEjected(t, n, 1, 500)
		if len(got) != 1 {
			t.Fatalf("packet to %d not delivered", dst)
		}
		return p.NetworkLatency()
	}
	l1, l3, l7 := lat(1), lat(3), lat(7)
	if !(l1 < l3 && l3 < l7) {
		t.Errorf("latencies not increasing: %d, %d, %d", l1, l3, l7)
	}
	// Per-hop increments must be constant at zero load.
	if (l7-l3)/4 != (l3-l1)/2 {
		t.Errorf("per-hop latency not constant: %d vs %d", (l7-l3)/4, (l3-l1)/2)
	}
}

func TestLargePacketSerialization(t *testing.T) {
	small := meshNet(t, 2, 1, nil)
	p1 := small.NewPacket(0, 1, 0, 1)
	small.Inject(p1)
	runUntilEjected(t, small, 1, 100)

	big := meshNet(t, 2, 1, nil)
	p5 := big.NewPacket(0, 1, 0, 5)
	big.Inject(p5)
	runUntilEjected(t, big, 1, 100)

	if p5.NetworkLatency() <= p1.NetworkLatency() {
		t.Errorf("5-flit latency %d not greater than 1-flit latency %d",
			p5.NetworkLatency(), p1.NetworkLatency())
	}
}

func TestManyPacketsConservation(t *testing.T) {
	n := meshNet(t, 4, 4, nil)
	const total = 300
	injected := 0
	var delivered []*Packet
	for c := 0; c < 5000 && len(delivered) < total; c++ {
		if injected < total {
			src := injected % 16
			dst := (injected * 7) % 16
			if dst == src {
				dst = (dst + 1) % 16
			}
			if n.Inject(n.NewPacket(src, dst, 0, 5)) {
				injected++
			}
		}
		n.Step()
		for r := 0; r < 16; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
				if p.Dst != r {
					t.Fatalf("packet %d ejected at %d, dst %d", p.ID, r, p.Dst)
				}
				delivered = append(delivered, p)
			}
		}
	}
	if len(delivered) != total {
		t.Fatalf("delivered %d of %d packets", len(delivered), total)
	}
	if n.InFlightPackets() != 0 {
		t.Errorf("%d packets still in network", n.InFlightPackets())
	}
	if n.Counters.Ejected != total || n.Counters.Injected != total {
		t.Errorf("counters: injected %d ejected %d, want %d",
			n.Counters.Injected, n.Counters.Ejected, total)
	}
}

func TestFreezeStopsAllocation(t *testing.T) {
	n := meshNet(t, 4, 1, nil)
	p := n.NewPacket(0, 3, 0, 1)
	n.Inject(p)
	n.Step() // packet enters local VC
	n.SetFrozen(true)
	for i := 0; i < 20; i++ {
		n.Step()
	}
	if n.Counters.Hops != 0 {
		t.Error("packet moved across links while frozen")
	}
	if p.EjectedAt != 0 {
		t.Error("packet ejected while frozen")
	}
	n.SetFrozen(false)
	got := runUntilEjected(t, n, 1, 100)
	if len(got) != 1 {
		t.Fatal("packet not delivered after unfreeze")
	}
}

func TestFreezeLetsInFlightComplete(t *testing.T) {
	n := meshNet(t, 2, 1, nil)
	p := n.NewPacket(0, 1, 0, 5)
	n.Inject(p)
	// Step until the packet is on the link (sending).
	for i := 0; i < 10 && n.InflightCount() == 0; i++ {
		n.Step()
	}
	if n.InflightCount() == 0 {
		t.Fatal("packet never started sending")
	}
	n.SetFrozen(true)
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if n.InflightCount() != 0 {
		t.Error("in-flight transfer did not complete during freeze")
	}
	if n.slotOf(p).sending {
		t.Error("packet still marked sending")
	}
}

func TestEjectQueueCapacityBlocks(t *testing.T) {
	n := meshNet(t, 2, 1, func(c *Config) { c.EjectCap = 1 })
	// Two packets to the same destination; without consumption, only one
	// can sit in the eject queue.
	a := n.NewPacket(0, 1, 0, 1)
	b := n.NewPacket(0, 1, 0, 1)
	n.Inject(a)
	n.Inject(b)
	for i := 0; i < 100; i++ {
		n.Step()
	}
	if got := n.EjectedLen(1, 0); got != 1 {
		t.Fatalf("eject queue holds %d, want 1", got)
	}
	// Consuming frees space; the second packet arrives.
	if p := n.PopEjected(1, 0); p == nil {
		t.Fatal("pop failed")
	}
	for i := 0; i < 100 && n.EjectedLen(1, 0) == 0; i++ {
		n.Step()
	}
	if n.EjectedLen(1, 0) != 1 {
		t.Fatal("second packet never ejected after consumption")
	}
}

func TestInjectCapBoundsQueue(t *testing.T) {
	n := meshNet(t, 2, 1, func(c *Config) { c.InjectCap = 2 })
	ok := 0
	for i := 0; i < 5; i++ {
		if n.Inject(n.NewPacket(0, 1, 0, 1)) {
			ok++
		}
	}
	if ok != 2 {
		t.Errorf("accepted %d injections, want 2", ok)
	}
	if !n.CanInject(1, 0) {
		t.Error("other router's queue should accept")
	}
}

func TestVNetSeparation(t *testing.T) {
	n := meshNet(t, 4, 1, func(c *Config) {
		c.VNets = 3
		c.VCsPerVN = 2
		c.Classes = 3
	})
	pkts := make([]*Packet, 3)
	for cl := 0; cl < 3; cl++ {
		pkts[cl] = n.NewPacket(0, 3, cl, 1)
		if pkts[cl].VNet != cl {
			t.Fatalf("class %d mapped to VN %d", cl, pkts[cl].VNet)
		}
		n.Inject(pkts[cl])
	}
	got := runUntilEjected(t, n, 3, 300)
	if len(got) != 3 {
		t.Fatalf("delivered %d of 3", len(got))
	}
}

func TestClassToVNetFolding(t *testing.T) {
	cfg := Config{VNets: 1, Classes: 3}
	if cfg.VNetOf(0) != 0 || cfg.VNetOf(1) != 0 || cfg.VNetOf(2) != 0 {
		t.Error("with 1 VN all classes must fold onto VN 0")
	}
	cfg.VNets = 3
	if cfg.VNetOf(2) != 2 {
		t.Error("with 3 VNs class 2 must use VN 2")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil graph should fail")
	}
	disc := topology.MustNew(4, []topology.Edge{{A: 0, B: 1}, {A: 2, B: 3}})
	if _, err := New(Config{Graph: disc}); err == nil {
		t.Error("disconnected graph should fail")
	}
	g := topology.MustMesh(2, 2).Graph
	if _, err := New(Config{Graph: g, Routing: routing.XY}); err == nil {
		t.Error("XY without mesh should fail")
	}
	// The per-port slot masks are one word wide.
	if _, err := New(Config{Graph: g, VNets: 8, VCsPerVN: 8, Classes: 8}); err != nil {
		t.Errorf("64 VCs per port should fit: %v", err)
	}
	if _, err := New(Config{Graph: g, VNets: 5, VCsPerVN: 13, Classes: 5}); err == nil {
		t.Error("65 VCs per port should fail")
	}
	// Only the two engines exist; a stale value must not mean "event".
	for _, k := range []EngineKind{EngineDense + 1, -1} {
		if _, err := New(Config{Graph: g, Engine: k}); err == nil {
			t.Errorf("Engine %d should fail", int(k))
		}
	}
}

// TestCheckInvariantsCoversDerivedVCState corrupts, one at a time, each
// piece of state derived from the VC slots — the occupied and free masks,
// the reservation implied by a pending transfer, the destination mirror,
// and every head mask with the reroute times beside them — and requires
// CheckInvariants to notice.
func TestCheckInvariantsCoversDerivedVCState(t *testing.T) {
	n := meshNet(t, 3, 1, nil)
	type corruption struct {
		name    string
		corrupt func()
	}
	bitOf := func(x *Packet) uint64 {
		return 1 << uint(int(n.ports[n.portOf(x.inLink, x.atRouter)].bit0)+x.slot)
	}
	expectCaught := func(cases []corruption) {
		t.Helper()
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			ports, vc, due := slices.Clone(n.ports), slices.Clone(n.vc), slices.Clone(n.rerouteDue)
			var masks [][]uint64
			for _, blk := range n.subs {
				masks = append(masks, slices.Clone(blk))
			}
			c.corrupt()
			if n.CheckInvariants() == nil {
				t.Errorf("%s: CheckInvariants passed", c.name)
			}
			copy(n.ports, ports)
			copy(n.vc, vc)
			copy(n.rerouteDue, due)
			for i, blk := range masks {
				copy(n.subs[i], blk)
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("state not restored: %v", err)
		}
	}

	p, err := n.PlacePacket(0, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.Step() // grants p the link 1->2: a pending transfer with a reserved target slot
	if n.InflightCount() != 1 {
		t.Fatalf("want one transfer in flight, have %d", n.InflightCount())
	}
	port := n.portOf(p.inLink, p.atRouter)
	out := mustLinkID(t, n, 1, 2)
	expectCaught([]corruption{
		{"occupied bit dropped", func() { n.ports[port].occ = 0 }},
		{"occupied slot marked free", func() { n.ports[port].free |= 1 << uint(p.slot) }},
		{"reserved slot marked free", func() { n.ports[out].free = 1<<uint(n.vcPerPort) - 1 }},
		{"free slot marked taken", func() { n.ports[n.localPort(0)].free = 0 }},
		{"destination mirror stale", func() { n.slotOf(p).dst++ }},
		{"sending mark dropped", func() { n.slotOf(p).sending = false }},
		{"departing head still due for routing", func() { n.slotOf(p).rerouteAt = n.slotOf(p).readyAt }},
		{"head state left in an empty slot", func() { n.slot(n.localPort(2), 0).readyAt = 7 }},
		{"departing head still ready", func() { n.sub(1, 0)[mReady] |= bitOf(p) }},
		{"departing head still on its output", func() { n.sub(1, 0)[int(n.lbase[out])+mMain] |= bitOf(p) }},
	})

	// Then the head masks: p and a second head sit at their destination
	// unable to eject, a routed head q waits behind them, and one more
	// head has not been routed yet.
	fillEjectQueue(n, 2, 0)
	n.Step()
	if _, err := n.PlacePacket(1, 2, 2, 1); err != nil {
		t.Fatal(err)
	}
	q, err := n.PlacePacket(0, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Step()
	pending, err := n.PlacePacket(0, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := n.sub(1, 0), n.sub(2, 0)
	if r1[mReady]&bitOf(q) == 0 || r1[mTimed]&bitOf(q) == 0 || r1[mPend]&bitOf(pending) == 0 || r2[mEj]&bitOf(p) == 0 {
		t.Fatalf("scenario not as intended: router 1 masks %b, router 2 masks %b", r1[:routerMasks], r2[:routerMasks])
	}
	cases := []corruption{
		{"pending bit on an empty slot", func() { n.sub(0, 0)[mPend] |= 1 }},
		{"pending head dropped", func() { r1[mPend] &^= bitOf(pending) }},
		{"pending head marked ready", func() { r1[mReady] |= bitOf(pending) }},
		{"pending head not due at its ready time", func() { n.slotOf(pending).rerouteAt = never }},
		{"ready head dropped", func() { r1[mReady] &^= bitOf(q) }},
		{"head away from its destination marked ejecting", func() { r1[mEj] |= bitOf(q) }},
		{"ejecting head dropped", func() { r2[mEj] &^= bitOf(p) }},
		{"timed bit dropped", func() { r1[mTimed] &^= bitOf(q) }},
		{"unflagged head marked flagged", func() { r1[mFlagged] |= bitOf(q) }},
		{"reroute time moved", func() { n.slotOf(q).rerouteAt++ }},
		{"router looks for reroutes too late", func() { n.rerouteDue[1] = n.slotOf(q).rerouteAt + 1 }},
		{"local-port mask changed", func() { r1[mLocal] ^= 1 }},
	}
	for kind := 0; kind < linkMasks; kind++ {
		cases = append(cases, corruption{fmt.Sprintf("output mask %d flipped", kind), func() { r1[int(n.lbase[out])+kind] ^= bitOf(q) }})
	}
	expectCaught(cases)
}

func TestEscapePacketsStayInEscape(t *testing.T) {
	// Saturate a small network with escape policy so escape VCs get used,
	// then check the invariant continuously (CheckInvariants enforces it).
	m := topology.MustMesh(3, 3)
	n, err := New(Config{
		Graph: m.Graph, Mesh: m,
		VNets: 1, VCsPerVN: 2, Classes: 1,
		PolicyEscape:  true,
		Routing:       routing.AdaptiveMinimal,
		EscapeRouting: routing.XY,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawEscape := false
	injected := 0
	for c := 0; c < 3000; c++ {
		for r := 0; r < 9; r++ {
			if injected < 600 {
				dst := (r + 1 + c) % 9
				if dst != r && n.Inject(n.NewPacket(r, dst, 0, 1)) {
					injected++
				}
			}
		}
		n.Step()
		for l := 0; l < m.NumLinks(); l++ {
			if p := n.EscapeOccupant(l, 0); p != nil && p.InEscape {
				sawEscape = true
			}
		}
		for r := 0; r < 9; r++ {
			for p := n.PopEjected(r, 0); p != nil; p = n.PopEjected(r, 0) {
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if !sawEscape {
		t.Error("escape VCs never used under saturation")
	}
}
