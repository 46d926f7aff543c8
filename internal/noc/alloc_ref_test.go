package noc

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"drain/internal/routing"
	"drain/internal/topology"
)

// The reference allocator: the exhaustive scan the request-set allocator
// replaced — gather every eligible head with its candidate lists, then
// for every output ask every request (for out { for req { optionFor } }).
// It reads the network through packets and pending flights only, never
// the per-port masks or the request sets, so it checks that derived state
// as well as the set-driven option lists. refEngine runs it beside the
// production allocator at every router visit and records the first
// disagreement.

// refGrant is a reference option: the grant, and how the parallel plan's
// form conditions it on the deferred single-VC bubble rule. The
// reference keeps both conditional outcomes of the scan it preserves;
// the production allocator only has grant.bubble (= refBubbleOK),
// because a grant valid only when the rule fails cannot occur (see
// buildLinkOptions) — refEngine fails the run if the reference ever
// builds one.
type refGrant struct {
	grant
	cond int
}

const (
	refAlways     = iota // valid unconditionally
	refBubbleOK          // valid iff the target router keeps >= 2 free slots in the VN at commit
	refBubbleFail        // valid iff it does not
)

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

// gather lists r's eligible heads in port then slot order, exactly the
// heads (and indices) the production gather files.
func (rs *refState) gather(r int) (reqs []refRequest, eligible int) {
	n := rs.n
	consider := func(port int, local bool) {
		for s := 0; s < n.vcPerPort; s++ {
			slot := &n.vc[port*n.vcPerPort+s]
			p := slot.pkt
			if p == nil || slot.sending || slot.readyAt > n.cycle {
				continue
			}
			eligible++
			req := refRequest{pkt: p, slot: slot, local: local}
			if p.Dst == r {
				req.wantEj = true
				reqs = append(reqs, req)
				continue
			}
			stalled := n.cfg.DerouteAfter > 0 && n.cycle-slot.readyAt >= int64(n.cfg.DerouteAfter)
			if n.cfg.PolicyEscape {
				escapeReady := p.InEscape || n.cfg.EscapeAfter <= 0 || n.cycle-slot.readyAt >= int64(n.cfg.EscapeAfter)
				if !p.InEscape {
					req.mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
				}
				if escapeReady {
					req.escOuts = n.routeCands(n.cfg.EscapeRouting, r, p.Dst, p.DownPhase && p.InEscape, stalled)
				}
			} else {
				req.mainOuts = n.routeCands(n.cfg.Routing, r, p.Dst, p.DownPhase, stalled)
			}
			if len(req.mainOuts) > 0 || len(req.escOuts) > 0 {
				reqs = append(reqs, req)
			}
		}
	}
	for _, l := range n.inLinks[r] {
		consider(l, false)
	}
	consider(n.localPort(r), true)
	return reqs, eligible
}

func refFindCand(cands []routing.Candidate, out int) (routing.Candidate, bool) {
	for _, c := range cands {
		if c.LinkID == out {
			return c, true
		}
	}
	return routing.Candidate{}, false
}

// optionFor is the grant the exhaustive scan builds for one request on
// one output, given the conservative-rule outcome.
func (rs *refState) optionFor(out, reqIdx int, req *refRequest, conservativeOK bool) (grant, bool) {
	n := rs.n
	p := req.pkt
	if conservativeOK {
		if c, ok := refFindCand(req.mainOuts, out); ok {
			if slot, ok2 := rs.freeDownstreamSlot(out, p.VNet, false); ok2 {
				return grant{reqIdx: int32(reqIdx), toSlot: int32(slot), cand: bitsOf(c)}, true
			}
		}
	}
	bypass := n.cfg.InjectPatience > 0 && n.cycle-req.slot.readyAt >= int64(n.cfg.InjectPatience)
	if (conservativeOK || bypass) && n.cfg.PolicyEscape {
		if c, ok := refFindCand(req.escOuts, out); ok {
			if slot, ok2 := rs.freeDownstreamSlot(out, p.VNet, true); ok2 {
				g := grant{reqIdx: int32(reqIdx), toSlot: int32(slot), cand: bitsOf(c)}
				if !n.cfg.NonStickyEscape {
					g.cand |= candEscape
				}
				return g, true
			}
		}
	}
	return grant{}, false
}

// linkOptions is the exhaustive scan for one output: every request is
// asked, in index order.
func (rs *refState) linkOptions(out int, reqs []refRequest, deferBubble bool) []refGrant {
	n := rs.n
	var options []refGrant
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
				if !deferBubble {
					conservativeOK = rs.routerFreeInVN(n.g.Link(out).To, p.VNet) >= 2
				} else {
					gOK, okOK := rs.optionFor(out, i, req, true)
					gFail, okFail := rs.optionFor(out, i, req, false)
					if okOK && okFail && gOK == gFail {
						options = append(options, refGrant{grant: gOK})
						continue
					}
					if okOK {
						options = append(options, refGrant{gOK, refBubbleOK})
					}
					if okFail {
						options = append(options, refGrant{gFail, refBubbleFail})
					}
					continue
				}
			}
		}
		if g, ok := rs.optionFor(out, i, req, conservativeOK); ok {
			options = append(options, refGrant{grant: g})
		}
	}
	return options
}

// refEngine is the dense engine with every router visit cross-checked
// against the reference allocator.
type refEngine struct {
	denseEngine
	err error // first disagreement
}

func (e *refEngine) step(n *Network) {
	e.completeFlights(n)
	if n.frozen {
		n.Counters.FrozenCyc++
		return
	}
	for r := 0; r < n.g.N(); r++ {
		if n.occIn[r] != 0 {
			e.allocateRouter(n, r)
		}
	}
	n.injectFromQueues()
}

func (e *refEngine) fail(n *Network, r int, format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("cycle %d router %d: %s", n.cycle, r, fmt.Sprintf(format, args...))
	}
}

// allocateRouter is Network.allocateRouter with the reference run beside
// it: same requests, and for every output — including those the
// production path skips — the same option list, in both the serial form
// and the parallel plan's deferred-bubble form. It commits through the
// production commit functions, so the run continues as production would.
func (e *refEngine) allocateRouter(n *Network, r int) {
	gs := &n.gs
	rs := newRefState(n)
	want, wantEligible := rs.gather(r)
	reqs, eligible := n.gatherRequests(r, gs)
	if eligible != wantEligible || len(reqs) != len(want) {
		e.fail(n, r, "gathered %d requests of %d eligible heads, reference %d of %d", len(reqs), eligible, len(want), wantEligible)
		return
	}
	for i := range reqs {
		if reqs[i].pkt != want[i].pkt || reqs[i].wantEj != want[i].wantEj || reqs[i].local != want[i].local || &n.vc[reqs[i].vc] != want[i].slot {
			e.fail(n, r, "request %d is %+v, reference %+v", i, reqs[i], want[i])
			return
		}
	}
	if len(reqs) == 0 {
		return
	}
	if n.ejectBusy[r] <= n.cycle {
		n.scrWin = n.buildEjectWinners(r, reqs, n.scrWin[:0])
		n.commitEject(r, reqs, n.scrWin)
	}
	for pos, out := range n.g.OutLinks(r) {
		rs = newRefState(n) // earlier commits at this router reserved slots
		// The parallel plan's form first, so scrOpts ends up holding the
		// serial form to commit.
		for _, deferBubble := range []bool{true, false} {
			got := n.scrOpts[:0]
			if gs.setLen[pos] != 0 {
				got = n.buildLinkOptions(out, gs.set(pos), reqs, got, deferBubble)
			}
			n.scrOpts = got
			ref := rs.linkOptions(out, want, deferBubble)
			if len(got) != len(ref) {
				e.fail(n, r, "output %d (defer=%v): %d options %+v, reference %d %+v", out, deferBubble, len(got), got, len(ref), ref)
				return
			}
			for i := range got {
				want := ref[i].grant
				want.bubble = ref[i].cond == refBubbleOK
				if got[i] != want || ref[i].cond == refBubbleFail {
					e.fail(n, r, "output %d (defer=%v) option %d is %+v, reference %+v", out, deferBubble, i, got[i], ref[i])
					return
				}
			}
		}
		n.commitLinkGrant(r, out, reqs, n.scrOpts)
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
// virtual networks (the bubble rule and its conditional options),
// derouting (AllOutputs sets, U-turns) on and off, three virtual
// networks, turn-restricted sticky escape routing (down-phase bits),
// escape entry gated by EscapeAfter, and a hub router with more than 64
// ports — and requires the set-driven allocator to build, at every
// router visit, the option lists of the exhaustive scan.
func TestAllocatorMatchesReference(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	cases := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"drain-vc2", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 2, PolicyEscape: true, NonStickyEscape: true}, 0.5},
		{"drain-vc1-bubble", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 1, PolicyEscape: true, NonStickyEscape: true, InjectPatience: 40}, 0.5},
		{"spin-vc1-noescape", Config{Graph: mesh.Graph, VNets: 2, VCsPerVN: 1, Classes: 2}, 0.5},
		{"minimal-only", Config{Graph: mesh.Graph, VNets: 1, VCsPerVN: 2, DerouteAfter: -1, InjectPatience: 30}, 0.6},
		{"coherence-vn3", Config{Graph: mesh.Graph, VNets: 3, VCsPerVN: 2, Classes: 3, PolicyEscape: true, NonStickyEscape: true}, 0.6},
		{"escape-xy-sticky", Config{Graph: mesh.Graph, Mesh: mesh, VNets: 3, VCsPerVN: 2, Classes: 3, PolicyEscape: true, EscapeRouting: routing.XY, EscapeAfter: 6}, 0.6},
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
			if n.Counters.VCAllocs == 0 {
				t.Fatal("no link grants: the run compared nothing")
			}
		})
	}
}
