package noc

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"drain/internal/routing"
	"drain/internal/topology"
)

// The reference allocator: the exhaustive scan the mask allocator
// replaced — gather every eligible head with its candidate lists as of
// this cycle, then for every output ask every head (for out { for req {
// optionFor } }). It reads the network through packets and pending
// flights only, never the per-port masks, the head masks or a cached
// route, so it checks that derived state as well as the option sets.
// refEngine runs it beside the production allocator at every router visit
// and records the first disagreement.

// refOption is one option of an output: the head, and the assignment.
type refOption struct {
	slot *vcSlot
	option
}

// refRequest is what the exhaustive scan gathers per eligible head.
type refRequest struct {
	pkt      *Packet
	slot     *vcSlot
	local    bool
	wantEj   bool
	mainOuts []routing.Candidate
	escOuts  []routing.Candidate
}

// refState is the reference's view of one router visit.
type refState struct {
	n *Network
	// reserved holds the (link, slot) targets of pending transfers.
	reserved map[[2]int]bool
}

func newRefState(n *Network) *refState {
	rs := &refState{n: n, reserved: map[[2]int]bool{}}
	n.eng.eachFlight(func(f *flight) {
		if !f.eject {
			rs.reserved[[2]int{int(f.toLink), int(f.toSlot)}] = true
		}
	})
	return rs
}

func (rs *refState) free(link, slot int) bool {
	return rs.n.LinkOccupant(link, slot) == nil && !rs.reserved[[2]int{link, slot}]
}

func (rs *refState) freeSlotsInVN(link, vn int) int {
	base := vn * rs.n.cfg.VCsPerVN
	c := 0
	for s := base; s < base+rs.n.cfg.VCsPerVN; s++ {
		if rs.free(link, s) {
			c++
		}
	}
	return c
}

func (rs *refState) routerFreeInVN(router, vn int) int {
	c := 0
	for _, l := range rs.n.inLinks[router] {
		c += rs.freeSlotsInVN(l, vn)
	}
	return c
}

func (rs *refState) freeDownstreamSlot(out, vn int, escape bool) (int, bool) {
	cfg := &rs.n.cfg
	base := vn * cfg.VCsPerVN
	if escape {
		return base, rs.free(out, base)
	}
	start := base
	if cfg.PolicyEscape {
		start = base + 1
	}
	for s := start; s < base+cfg.VCsPerVN; s++ {
		if rs.free(out, s) {
			return s, true
		}
	}
	return 0, false
}

// gather lists r's eligible heads in port then slot order — the order of
// the production numbering — each with the candidates it has this cycle
// (none for a head at its destination, or one routing offers nothing).
func (rs *refState) gather(r int) (reqs []refRequest) {
	n := rs.n
	consider := func(port int, local bool) {
		for s := 0; s < n.vcPerPort; s++ {
			slot := n.slot(port, s)
			p := slot.pkt
			if p == nil || slot.sending || slot.readyAt > n.cycle {
				continue
			}
			req := refRequest{pkt: p, slot: slot, local: local}
			if p.Dst == r {
				req.wantEj = true
				reqs = append(reqs, req)
				continue
			}
			stalled := n.cfg.DerouteAfter > 0 && n.cycle-slot.readyAt >= int64(n.cfg.DerouteAfter)
			if n.cfg.PolicyEscape {
				if !p.InEscape {
					req.mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
				}
				req.escOuts = n.routeCands(n.cfg.EscapeRouting, r, p.Dst, p.DownPhase && p.InEscape, stalled)
			} else {
				req.mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
			}
			reqs = append(reqs, req)
		}
	}
	for _, l := range n.inLinks[r] {
		consider(l, false)
	}
	consider(n.localPort(r), true)
	return reqs
}

func refFindCand(cands []routing.Candidate, out int) (routing.Candidate, bool) {
	for _, c := range cands {
		if c.LinkID() == out {
			return c, true
		}
	}
	return 0, false
}

// optionFor is the option the exhaustive scan builds for one request on
// one output, given the conservative-rule outcome.
func (rs *refState) optionFor(out int, req *refRequest, conservativeOK bool) (option, bool) {
	n := rs.n
	p := req.pkt
	if conservativeOK {
		if c, ok := refFindCand(req.mainOuts, out); ok {
			if slot, ok2 := rs.freeDownstreamSlot(out, p.VNet, false); ok2 {
				return option{toSlot: int32(slot), downPhase: c.DownPhase(), productive: c.Productive()}, true
			}
		}
	}
	bypass := n.cfg.InjectPatience > 0 && n.cycle-req.slot.readyAt >= int64(n.cfg.InjectPatience)
	if (conservativeOK || bypass) && n.cfg.PolicyEscape {
		if c, ok := refFindCand(req.escOuts, out); ok {
			if slot, ok2 := rs.freeDownstreamSlot(out, p.VNet, true); ok2 {
				return option{toSlot: int32(slot), setEscape: !n.cfg.NonStickyEscape, downPhase: c.DownPhase(), productive: c.Productive()}, true
			}
		}
	}
	return option{}, false
}

// linkOptions is the exhaustive scan for one output: every request is
// asked, in gather order.
func (rs *refState) linkOptions(out int, reqs []refRequest) []refOption {
	n := rs.n
	var options []refOption
	if n.linkBusy[out] > n.cycle {
		return nil
	}
	for i := range reqs {
		req := &reqs[i]
		p := req.pkt
		if req.slot.sending {
			continue
		}
		conservativeOK := true
		if req.local {
			if rs.freeSlotsInVN(out, p.VNet) < min(2, n.cfg.VCsPerVN) {
				conservativeOK = false
			}
			if conservativeOK && n.cfg.VCsPerVN == 1 {
				conservativeOK = rs.routerFreeInVN(n.g.Link(out).To, p.VNet) >= 2
			}
		}
		if g, ok := rs.optionFor(out, req, conservativeOK); ok {
			options = append(options, refOption{req.slot, g})
		}
	}
	return options
}

// refEngine is the dense engine with every router visit cross-checked
// against the reference allocator.
type refEngine struct {
	denseEngine
	err error // first disagreement
	// noExit keeps every visit on the general path: the run that never
	// took the uncontested exit, which lonePair compares the exit with.
	noExit bool
}

func (e *refEngine) step(n *Network) {
	e.completeFlights(n)
	if n.frozen {
		n.Counters.FrozenCyc++
		return
	}
	for r := 0; r < n.g.N(); r++ {
		e.allocateRouter(n, r)
	}
	n.injectFromQueues()
}

func (e *refEngine) fail(n *Network, r int, format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("cycle %d router %d: %s", n.cycle, r, fmt.Sprintf(format, args...))
	}
}

// expand lists, in ascending bit order, the heads of router r for which
// in(word, mask of the bit) holds, each with what option says of it.
func expand(n *Network, r int, in func(w int, bit uint64) bool, option func(b int, slot *vcSlot) option) []refOption {
	var out []refOption
	for b := 0; b < n.maskW*64; b++ {
		if in(b>>6, 1<<uint(b&63)) {
			out = append(out, refOption{n.head(r, b), option(b, n.head(r, b))})
		}
	}
	return out
}

// sameOptions compares a production option set with the reference's,
// element by element.
func (e *refEngine) sameOptions(n *Network, r int, what string, got, ref []refOption) bool {
	if len(got) != len(ref) {
		e.fail(n, r, "%s: %d options %+v, reference %d %+v", what, len(got), got, len(ref), ref)
		return false
	}
	for i := range got {
		if got[i] != ref[i] {
			e.fail(n, r, "%s: option %d is %+v (packet %d), reference %+v (packet %d)", what, i, got[i], got[i].slot.pkt.ID, ref[i], ref[i].slot.pkt.ID)
			return false
		}
	}
	return true
}

// lone is the uncontested exit of Network.allocateRouter with the
// reference beside it. The precondition, evaluated as production does,
// must be the scan's: no head visited before and one eligible. The exit's
// decision must then be the scan's single option on the eject port or on
// the first output that has one — or none anywhere. The grant goes
// through the exit; lone reports whether there was one.
func (e *refEngine) lone(n *Network, r int, rs *refState, want []refRequest) bool {
	visited := false
	for w := 0; w < n.maskW; w++ {
		visited = visited || n.sub(r, w)[mReady] != 0
	}
	b := n.loneHead(r)
	if wantLone := !visited && len(want) == 1; (b >= 0) != wantLone || wantLone && n.head(r, b) != want[0].slot {
		e.fail(n, r, "lone head %d, reference has %d eligible heads (some visited: %v)", b, len(want), visited)
		return false
	}
	if b < 0 {
		return false
	}
	wantOut, wantOpt, wantOK := ejectPort, option{}, false
	if req := &want[0]; req.wantEj {
		wantOK = n.ejectBusy[r] <= n.cycle && n.ejectSpace(r, req.pkt.Class)
	} else {
		for _, out := range n.g.OutLinks(r) {
			if opts := rs.linkOptions(out, want); len(opts) != 0 {
				wantOut, wantOpt, wantOK = out, opts[0].option, true
				break
			}
		}
	}
	out, g, ok := n.loneOption(r, b)
	if ok != wantOK || ok && (out != wantOut || g != wantOpt) {
		e.fail(n, r, "lone head %d (packet %d): exit decides output %d %+v (grant: %v), reference output %d %+v (grant: %v)",
			b, want[0].pkt.ID, out, g, ok, wantOut, wantOpt, wantOK)
		return false
	}
	if n.grantLone(r, b) != ok {
		e.fail(n, r, "lone head %d: the exit decided %v and did otherwise", b, ok)
	}
	return ok
}

// allocateRouter is Network.allocateRouter with the reference run beside
// it: the uncontested exit first (lone), then the same ready heads after
// promotion, the same eject options, and for every output — including
// those production finds busy or full — the same option list, the
// production masks expanded to bit-ascending (head, slot, effects) lists.
// It commits through the production commit functions, so the run
// continues as production would.
func (e *refEngine) allocateRouter(n *Network, r int) {
	noOption := func(int, *vcSlot) option { return option{} }
	rs := newRefState(n)
	want := rs.gather(r)
	if !e.noExit && e.lone(n, r, rs, want) {
		return
	}
	n.promote(r)
	var wantReady, wantEj []refOption
	for _, req := range want {
		wantReady = append(wantReady, refOption{slot: req.slot})
		if req.wantEj && n.ejectSpace(r, req.pkt.Class) {
			wantEj = append(wantEj, refOption{slot: req.slot})
		}
	}
	ready := func(w int, bit uint64) bool { return n.sub(r, w)[mReady]&bit != 0 }
	inOpts := func(w int, bit uint64) bool { return (n.optMain[w]|n.optEsc[w])&bit != 0 }
	if !e.sameOptions(n, r, "ready heads", expand(n, r, ready, noOption), wantReady) {
		return
	}
	if n.ejectBusy[r] <= n.cycle { // with or without a head to eject: the reference has none either
		count := n.buildEjectOptions(r)
		clear(n.optEsc)
		if !e.sameOptions(n, r, "eject", expand(n, r, inOpts, noOption), wantEj) {
			return
		}
		if count != 0 {
			n.commitEject(r, count)
		}
	}
	for _, out := range n.g.OutLinks(r) {
		rs = newRefState(n) // earlier commits at this router reserved slots
		var got []refOption
		count, productive := 0, 0
		if n.linkBusy[out] <= n.cycle && n.ports[out].free != 0 && n.named(r, out) { // as production visits it
			count, productive = n.linkOptions(r, out)
		}
		if count != 0 {
			got = expand(n, r, inOpts, func(b int, slot *vcSlot) option { return n.optionAt(n.sub(r, b>>6), out, b, slot.pkt) })
		}
		wantProd := 0
		for _, o := range got {
			if o.productive {
				wantProd++
			}
		}
		if len(got) != count || wantProd != productive || !e.sameOptions(n, r, fmt.Sprintf("output %d", out), got, rs.linkOptions(out, want)) {
			e.fail(n, r, "output %d: %d options counted (%d productive), %d in the masks (%d productive)", out, count, productive, len(got), wantProd)
			return
		}
		if count != 0 {
			n.commitLinkGrant(r, out, count, productive)
		}
	}
}

// withRefEngine swaps n's engine (which must be a fresh dense engine) for
// the cross-checking one.
func withRefEngine(n *Network) *refEngine {
	e := &refEngine{}
	n.eng = e
	return e
}

// hubGraph is a ring of n routers plus router 0 linked to every other
// router: one router of degree n-1, wider than a 64-bit word.
func hubGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	var edges []topology.Edge
	for r := 1; r < n; r++ {
		edges = append(edges, topology.Edge{A: 0, B: r})
		if r+1 < n {
			edges = append(edges, topology.Edge{A: r, B: r + 1})
		}
	}
	g, err := topology.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllocatorMatchesReference drives seeded random traffic through
// configurations that reach every branch of option building — single-VC
// virtual networks (the bubble rule),
// derouting (AllOutputs sets, U-turns) on and off, three virtual
// networks, turn-restricted sticky escape routing (down-phase bits)
// beside a later deroute threshold, escape lists unlike the main ones
// without stickiness, sticky unrestricted escape (escape lists equal to
// the main ones that still need masks of their own: a packet in the
// escape VC has no main list), and a hub router with more than 64
// ports (three mask words) — and requires the mask allocator to build, at
// every router visit, the option lists of the exhaustive scan.
func TestAllocatorMatchesReference(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	cases := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"drain-vc2", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 2, PolicyEscape: true, NonStickyEscape: true}, 0.5},
		{"drain-sticky", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 2, PolicyEscape: true}, 0.5},
		{"drain-vc1-bubble", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 1, PolicyEscape: true, NonStickyEscape: true, InjectPatience: 40}, 0.5},
		{"spin-vc1-noescape", Config{Graph: mesh.Graph, VNets: 2, VCsPerVN: 1, Classes: 2}, 0.5},
		{"minimal-only", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 2, DerouteAfter: -1, InjectPatience: 30}, 0.6},
		{"coherence-vn3", Config{Graph: mesh.Graph, VNets: 3, VCsPerVN: 2, Classes: 3, PolicyEscape: true, NonStickyEscape: true}, 0.6},
		{"escape-xy-sticky", Config{Graph: mesh.Graph, Mesh: mesh, VNets: 3, VCsPerVN: 2, Classes: 3, PolicyEscape: true, EscapeRouting: routing.XY, DerouteAfter: 6}, 0.6},
		{"escape-xy-nonsticky", Config{Graph: mesh.Graph, Mesh: mesh, VNets: 1, VCsPerVN: 2, PolicyEscape: true, NonStickyEscape: true, EscapeRouting: routing.XY}, 0.6},
		{"escape-updown-sticky", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 3, PolicyEscape: true, EscapeRouting: routing.UpDown}, 0.6},
		{"updown-main", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 2, Routing: routing.UpDown}, 0.5},
		{"hub-70-ports", Config{Graph: hubGraph(t, 71), VNets: 1, VCsPerVN: 2, PolicyEscape: true, NonStickyEscape: true}, 0.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Engine = EngineDense
			cfg.Seed = 7
			if cfg.PolicyEscape && cfg.EscapeRouting == 0 {
				cfg.EscapeRouting = routing.AdaptiveMinimal
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := withRefEngine(n)
			rng := rand.New(rand.NewPCG(11, 13))
			nodes := cfg.Graph.N()
			for cyc := 0; cyc < 600; cyc++ {
				for src := 0; src < nodes; src++ {
					if rng.Float64() >= tc.rate/float64(1+cyc/300) {
						continue
					}
					dst := rng.IntN(nodes)
					if dst == src {
						continue
					}
					p := n.NewPacket(src, dst, rng.IntN(n.cfg.Classes), 1+rng.IntN(5))
					if !n.Inject(p) {
						n.ReleasePacket(p)
					}
				}
				n.Step()
				if ref.err != nil {
					t.Fatal(ref.err)
				}
				n.DiscardEjected()
				if cyc%64 == 0 {
					if err := n.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", cyc, err)
					}
				}
			}
			if n.Counters.VCAllocs == 0 || n.loneGrants == 0 || n.loneGrants == n.Counters.SWAllocs {
				t.Fatalf("%d link grants, %d of %d grants by the uncontested exit: a path was compared with nothing",
					n.Counters.VCAllocs, n.loneGrants, n.Counters.SWAllocs)
			}
		})
	}
}
