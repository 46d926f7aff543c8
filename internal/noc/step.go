package noc

import (
	"context"
	"math/bits"

	"drain/internal/routing"
)

// CancelCheckEvery is how often (in cycles) StepContext polls its
// context. It bounds how long a cancelled run keeps stepping: a caller
// driving the network exclusively through StepContext observes the
// cancellation within CancelCheckEvery cycles. A power of two keeps the
// per-cycle cost to one mask-and-branch.
const CancelCheckEvery = 1024

// StepContext advances the network by one cycle like Step, first
// checking ctx every CancelCheckEvery cycles. It returns ctx.Err() (and
// leaves the network un-stepped) once the context is cancelled, nil
// otherwise. With context.Background() it is behaviorally identical to
// Step: the check never fires an error and consumes no randomness, so
// determinism is unaffected.
func (n *Network) StepContext(ctx context.Context) error {
	if n.cycle&(CancelCheckEvery-1) == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	n.Step()
	return nil
}

// request is an input VC head asking to move this cycle (scratch state).
// The outputs it may take are recorded in the gatherScratch's per-output
// request sets, not here.
type request struct {
	pkt    *Packet
	vc     int32 // flat index of the input VC slot (into Network.vc)
	vnet   int32
	local  bool // the input port is the router's injection port
	wantEj bool
}

// candBits records one routing candidate of a request on an output.
type candBits uint8

const (
	candPresent candBits = 1 << iota
	candDownPhase
	candProductive
	// candEscape is set only on a grant's copy of the bits: the grant
	// enters the downstream escape VC and makes the packet sticky.
	candEscape
)

// bitsOf encodes a routing candidate's presence and flags.
func bitsOf(c routing.Candidate) candBits {
	b := candPresent
	if c.DownPhase {
		b |= candDownPhase
	}
	if c.Productive {
		b |= candProductive
	}
	return b
}

// outReq is one member of an output's request set: the index of a
// request that named the output, with its candBits as a non-escape
// candidate (main) and as an escape candidate (esc); either may be
// absent. Packed into one word — req<<6 | esc<<3 | main — so a set member
// is written and read with a single store and load.
type outReq uint32

func (e outReq) req() int32     { return int32(e >> 6) }
func (e outReq) main() candBits { return candBits(e & 7) }
func (e outReq) esc() candBits  { return candBits(e >> 3 & 7) }

// grant is one feasible (input VC → output slot) assignment during link
// arbitration (scratch state).
type grant struct {
	reqIdx int32
	toSlot int32
	// cand carries the winning candidate's arrival effects (down phase,
	// productive hop, sticky escape entry).
	cand candBits
	// bubble marks an option the parallel engine planned before it could
	// evaluate the single-VC bubble rule (the one cross-router read during
	// allocation; see parallel.go): it is valid iff the output's target
	// router still has >= 2 free slots in the request's VN at commit.
	// Serial arbitration evaluates the rule inline and never sets it.
	bubble bool
}

// gatherScratch is the per-allocator request-gathering scratch. The
// serial engines use the Network's single instance; the parallel
// engine's plan workers each own one so gathering can run concurrently.
//
// Besides the request list it holds the per-output request sets of the
// router being gathered: the set of output position pos (an index into
// Graph.OutLinks(r)) is sets[pos*stride : pos*stride+setLen[pos]], in
// ascending request index. Arbitration walks each output's set instead
// of asking every request about every output; the options it builds,
// and so every RNG draw, are the ones the exhaustive scan would build
// (a request absent from a set yields no option on that output).
//
//drain:staged one instance per plan worker (parShard.gs); the serial engines use the Network's own instance on the stepping goroutine (shardsafe)
type gatherScratch struct {
	reqs   []request
	sets   []outReq
	setLen []int32
	stride int
}

// newGatherScratch sizes the scratch for cfg's largest router: every
// input VC may request, and every request may name every output.
func newGatherScratch(cfg *Config) gatherScratch {
	maxDeg := 0
	for r := 0; r < cfg.Graph.N(); r++ {
		maxDeg = max(maxDeg, cfg.Graph.Degree(r))
	}
	stride := (maxDeg + 1) * cfg.VCsPerPort()
	return gatherScratch{
		reqs:   make([]request, 0, stride),
		sets:   make([]outReq, maxDeg*stride),
		setLen: make([]int32, maxDeg),
		stride: stride,
	}
}

// set returns the request set gathered for output position pos.
func (gs *gatherScratch) set(pos int) []outReq {
	return gs.sets[pos*gs.stride : pos*gs.stride+int(gs.setLen[pos])]
}

// Step advances the network by one cycle: completes arrivals, performs
// switch/VC allocation (unless frozen), and moves injection-queue heads
// into free local VCs. The caller consumes ejection queues afterwards.
// The cycle body is dispatched through the configured engine (event,
// dense, or parallel); all drive the same mutation paths below and are
// byte-identical — see DESIGN.md §"Event-driven core" and §"Sharded
// parallel engine".
func (n *Network) Step() {
	n.cycle++
	n.noteCycles(1)
	n.eng.step(n)
}

// land applies the effects of a completed transfer.
func (n *Network) land(f flight) {
	p := f.pkt
	n.freeUpstream(p.inLink, p.atRouter, p.slot, int64(p.Flits), &n.Counters)
	if f.eject {
		n.pushEject(int(f.toRouter), p)
		return
	}
	n.landArrive(f, &n.Counters)
}

// freeUpstream releases the input VC slot a departed packet occupied.
// The position is passed explicitly (not read from the packet) because
// the parallel engine applies the release after the arrival side has
// already overwritten the packet's position fields.
func (n *Network) freeUpstream(inLink, router, slot int, flits int64, ctr *Counters) {
	n.vacate(n.portOf(inLink, router), slot)
	n.occIn[router]--
	ctr.BufReads += flits
}

// landArrive applies the downstream (destination-router) effects of a
// completed non-eject transfer. Counter increments go to ctr so the
// parallel engine can stage them per shard.
func (n *Network) landArrive(f flight, ctr *Counters) {
	p := f.pkt
	readyAt := n.cycle + int64(n.cfg.RouterLatency)
	toRouter := int(f.toRouter)
	n.occupy(int(f.toLink), int(f.toSlot), p, readyAt)
	n.occIn[toRouter]++
	p.atRouter = toRouter
	p.inLink = int(f.toLink)
	p.slot = int(f.toSlot)
	p.Hops++
	if f.setEscape {
		p.InEscape = true
	}
	p.DownPhase = f.downPhase
	if !f.productive {
		p.Misroutes++
		ctr.Misroutes++
	}
	ctr.Hops++
	ctr.LinkFlits += int64(p.Flits)
	ctr.BufWrites += int64(p.Flits)
	ctr.noteVNActivity(p.VNet, toRouter, n.cycle, int64(p.Flits))
	n.eng.placed(n, toRouter, readyAt)
}

// pushEject delivers p to its destination's ejection queue.
func (n *Network) pushEject(router int, p *Packet) {
	p.EjectedAt = n.cycle
	n.ejQ[router][p.Class].Push(p)
	if !n.ejDirty[router] {
		n.ejDirty[router] = true
		n.ejDirtyList = append(n.ejDirtyList, int32(router))
	}
	n.Counters.Ejected++
	if n.OnEject != nil {
		n.OnEject(p)
	}
}

// allocate performs one cycle of switch + VC allocation at every active
// router. Routers with no occupied input VCs cannot produce requests (and
// would consume no randomness), so they are skipped outright.
func (n *Network) allocate() {
	for r := 0; r < n.g.N(); r++ {
		if n.occIn[r] == 0 {
			continue
		}
		n.allocateRouter(r, &n.gs)
	}
}

// allocateRouter arbitrates router r's output ports among its input VCs.
// It returns how many input VC heads were eligible to move this cycle
// (whether or not they produced a routable request) and how many were
// granted an output; the event engine clears r's activity bit only when
// the two are equal, so a head that is blocked, loses arbitration, or
// is merely waiting to become stalled-enough to deroute keeps the
// router in the active set.
func (n *Network) allocateRouter(r int, gs *gatherScratch) (eligible, granted int) {
	reqs, eligible := n.gatherRequests(r, gs)
	if len(reqs) == 0 {
		return eligible, 0
	}
	// Eject port first (it frees VCs fastest and models priority to
	// sinking traffic), then each output link in Graph.OutLinks order.
	if n.ejectBusy[r] <= n.cycle {
		winners := n.buildEjectWinners(r, reqs, n.scrWin[:0])
		n.scrWin = winners
		granted += n.commitEject(r, reqs, winners)
	}
	for pos, out := range n.g.OutLinks(r) {
		if gs.setLen[pos] == 0 {
			continue
		}
		options := n.buildLinkOptions(out, gs.set(pos), reqs, n.scrOpts[:0], false)
		n.scrOpts = options
		granted += n.commitLinkGrant(r, out, reqs, options)
	}
	return eligible, granted
}

// gatherRequests lists input VCs of r with a head packet eligible to move
// this cycle and files each under the outputs it may use (gs's request
// sets). The second result counts every eligible head, including those
// dropped for having no routing candidates right now (deroute/escape
// eligibility can appear with the passage of time alone, so such heads
// must keep the router active).
func (n *Network) gatherRequests(r int, gs *gatherScratch) ([]request, int) {
	eligible := 0
	gs.reqs = gs.reqs[:0]
	clear(gs.setLen[:len(n.g.OutLinks(r))])
	for _, l := range n.inLinks[r] {
		if n.ports[l].occ != 0 {
			eligible += n.considerVCs(r, l, false, gs)
		}
	}
	if local := n.localPort(r); n.ports[local].occ != 0 {
		eligible += n.considerVCs(r, local, true, gs)
	}
	return gs.reqs, eligible
}

// considerVCs appends requests for the eligible heads among one input
// port's occupied VC slots, returning how many heads were eligible.
func (n *Network) considerVCs(r, port int, local bool, gs *gatherScratch) int {
	eligible := 0
	base := port * n.vcPerPort
	for m := n.ports[port].occ; m != 0; m &= m - 1 {
		s := bits.TrailingZeros64(m)
		slot := &n.vc[base+s]
		if slot.sending || slot.readyAt > n.cycle {
			continue
		}
		eligible++
		p := slot.pkt
		req := request{pkt: p, vc: int32(base + s), vnet: int32(s / n.cfg.VCsPerVN), local: local}
		dst := int(slot.dst)
		if dst == r {
			req.wantEj = true
			gs.reqs = append(gs.reqs, req)
			continue
		}
		// A long-stalled packet on an unrestricted (adaptive) routing
		// function may deroute over any output, including U-turns.
		stalled := n.cfg.DerouteAfter > 0 && n.cycle-slot.readyAt >= int64(n.cfg.DerouteAfter)
		// Routing candidates. Escape discipline (paper §III-A):
		// a packet in an escape VC may only continue on escape VCs
		// under EscapeRouting; others may use either. The candidate
		// slices are the routing table's shared read-only sets.
		var mainOuts, escOuts []routing.Candidate
		if n.cfg.PolicyEscape {
			escapeReady := p.InEscape ||
				n.cfg.EscapeAfter <= 0 ||
				n.cycle-slot.readyAt >= int64(n.cfg.EscapeAfter)
			if !p.InEscape {
				mainOuts = n.routeCands(n.cfg.Routing, r, dst, p.DownPhase, stalled)
			}
			// Phase for escape routing: a packet entering the escape
			// network starts its up*/down* walk fresh.
			escPhase := p.DownPhase
			if !p.InEscape {
				escPhase = false
			}
			if escapeReady {
				escOuts = n.routeCands(n.cfg.EscapeRouting, r, dst, escPhase, stalled)
			}
		} else {
			mainOuts = n.routeCands(n.cfg.Routing, r, dst, p.DownPhase, stalled)
		}
		if len(mainOuts) == 0 && len(escOuts) == 0 {
			continue
		}
		// File the request under every output it names that can be
		// granted this cycle. An output whose link is busy or whose
		// downstream port has no free slot yields no option for anyone,
		// and only this router's own grant on it (after which it is not
		// arbitrated again) can change either fact before arbitration, so
		// leaving it out of the sets is unobservable. Both candidate lists
		// ascend by link ID; merging them files each output once.
		i := outReq(len(gs.reqs)) << 6
		for len(mainOuts) > 0 || len(escOuts) > 0 {
			var out int
			e := i
			switch {
			case len(escOuts) == 0 || len(mainOuts) > 0 && mainOuts[0].LinkID < escOuts[0].LinkID:
				out, e = mainOuts[0].LinkID, e|outReq(bitsOf(mainOuts[0]))
				mainOuts = mainOuts[1:]
			case len(mainOuts) == 0 || escOuts[0].LinkID < mainOuts[0].LinkID:
				out, e = escOuts[0].LinkID, e|outReq(bitsOf(escOuts[0]))<<3
				escOuts = escOuts[1:]
			default: // named by both lists
				out, e = mainOuts[0].LinkID, e|outReq(bitsOf(mainOuts[0]))|outReq(bitsOf(escOuts[0]))<<3
				mainOuts, escOuts = mainOuts[1:], escOuts[1:]
			}
			if n.linkBusy[out] > n.cycle || n.ports[out].free == 0 {
				continue
			}
			pos := int(n.outPos[out])
			gs.sets[pos*gs.stride+int(gs.setLen[pos])] = e
			gs.setLen[pos]++
		}
		gs.reqs = append(gs.reqs, req)
	}
	return eligible
}

// buildEjectWinners appends the indices (into reqs) of the packets that
// could take r's eject port this cycle. Feasibility depends only on
// state owned by router r (its reqs' packets, its ejection queues), so
// the parallel engine can build winner lists concurrently per shard and
// commit them later unchanged.
func (n *Network) buildEjectWinners(r int, reqs []request, winners []int) []int {
	for i := range reqs {
		req := &reqs[i]
		if req.wantEj && n.ejectSpace(r, req.pkt.Class) {
			winners = append(winners, i)
		}
	}
	return winners
}

// commitEject draws the eject-port winner and applies the grant. Must
// run serially in ascending router order (it consumes the shared RNG).
func (n *Network) commitEject(r int, reqs []request, winners []int) int {
	if len(winners) == 0 {
		return 0
	}
	req := &reqs[winners[n.rng.IntN(len(winners))]]
	p := req.pkt
	n.vc[req.vc].sending = true
	n.ejectBusy[r] = n.cycle + int64(p.Flits)
	n.eng.addFlight(n, flight{
		pkt: p, doneAt: n.cycle + int64(p.Flits), eject: true, toLink: -1, toRouter: int32(r),
	})
	n.Counters.SWAllocs++
	n.Counters.XbarFlits += int64(p.Flits)
	n.Counters.noteVNActivity(p.VNet, r, n.cycle, int64(p.Flits))
	return 1
}

// buildLinkOptions appends every feasible (request → output slot)
// assignment for link `out` to options, walking the output's request
// set. All feasibility inputs are stable for the whole allocation phase
// — an output link is granted at most once per cycle and belongs to
// exactly one source router — with two exceptions:
//
//   - sending: a packet granted an earlier output of the same router
//     is skipped. With deferBubble the caller re-filters at commit time.
//   - the single-VC bubble rule (routerFreeInVN of the *target* router),
//     which other routers' same-cycle grants can still change. With
//     deferBubble=false it is evaluated inline (serial allocators); with
//     deferBubble=true the plan marks the options that depend on it
//     (grant.bubble) for the serial commit to resolve at exactly the
//     point the serial order would have evaluated the rule.
func (n *Network) buildLinkOptions(out int, set []outReq, reqs []request, options []grant, deferBubble bool) []grant {
	for _, e := range set {
		req := &reqs[e.req()]
		if n.vc[req.vc].sending {
			continue
		}
		free := n.freeInVN(out, int(req.vnet))
		// Conservative VC allocation at the injection port (paper §II-C:
		// fully adaptive routing pairs with conservative allocation): a
		// locally injected packet may not claim the last free VC of the
		// downstream port's VN, so through-traffic always has a hole to
		// move into and the network cannot self-jam into 100% occupancy.
		// With single-VC virtual networks the port rule degenerates, so a
		// bubble-flow-control-style router rule applies instead: the
		// target router must retain a second free buffer in the VN.
		conservativeOK := !req.local || bits.OnesCount64(free) >= min(2, n.cfg.VCsPerVN)
		if req.local && conservativeOK && n.cfg.VCsPerVN == 1 {
			if !deferBubble {
				conservativeOK = n.routerFreeInVN(n.g.Link(out).To, int(req.vnet)) >= 2
			} else {
				// Plan the rule-satisfied outcome. If the rule's failure
				// would grant too, it grants the same: with one VC per VN a
				// failed rule leaves only the escape path, which exists
				// only under PolicyEscape, where that single VC is the
				// escape slot and the satisfied outcome takes the escape
				// path as well. Otherwise the commit decides.
				lo := len(options)
				options = n.appendOption(options, e, req, free, true)
				if len(options) > lo && len(n.appendOption(options, e, req, free, false)) == len(options) {
					g := options[lo]
					g.bubble = true
					options[lo] = g
				}
				continue
			}
		}
		options = n.appendOption(options, e, req, free, conservativeOK)
	}
	return options
}

// appendOption appends the grant the allocator builds for set member e
// given the conservative-rule outcome, if any; free is the output's
// free-slot mask within the request's VN (freeInVN). The non-escape
// path needs the output among the request's main candidates and a free
// non-escape VC downstream; failing that, the escape path applies:
// output legal under escape routing and the escape slot downstream free.
// A long-stalled local packet may claim an escape slot even against the
// conservative rule: drains guarantee escape buffers keep turning over,
// so this bounded bypass restores the injection-progress guarantee
// (§III-D2) without letting injection pack ordinary buffers to 100%.
func (n *Network) appendOption(options []grant, e outReq, req *request, free uint64, conservativeOK bool) []grant {
	base := req.vnet * int32(n.cfg.VCsPerVN)
	main, esc := e.main(), e.esc()
	if conservativeOK && main&candPresent != 0 {
		plain := free
		if n.cfg.PolicyEscape {
			plain &^= 1 // slot 0 is the escape VC: reachable only via the escape path
		}
		if plain != 0 {
			return append(options, grant{reqIdx: e.req(), toSlot: base + int32(bits.TrailingZeros64(plain)), cand: main})
		}
	}
	if esc&candPresent != 0 && free&1 != 0 && (conservativeOK || n.injectBypass(req)) {
		if !n.cfg.NonStickyEscape {
			esc |= candEscape
		}
		return append(options, grant{reqIdx: e.req(), toSlot: base, cand: esc})
	}
	return options
}

// commitLinkGrant draws the winner among options and applies the grant.
// Must run serially in ascending (router, output) order — it consumes
// the shared RNG, and the option sets of later outputs depend on
// earlier winners through the granted slot's sending mark.
func (n *Network) commitLinkGrant(r, out int, reqs []request, options []grant) int {
	if len(options) == 0 {
		return 0
	}
	// Prefer productive grants: deroutes only win an output no minimal
	// packet wants, keeping misrouting a last resort. The filter runs
	// in place (relative order preserved) to stay allocation-free.
	prodCount := 0
	for _, o := range options {
		if o.cand&candProductive != 0 {
			prodCount++
		}
	}
	if prodCount > 0 && prodCount < len(options) {
		kept := options[:0]
		for _, o := range options {
			if o.cand&candProductive != 0 {
				kept = append(kept, o)
			}
		}
		options = kept
	}
	g := options[n.rng.IntN(len(options))]
	req := &reqs[g.reqIdx]
	p := req.pkt
	n.vc[req.vc].sending = true
	n.linkBusy[out] = n.cycle + int64(p.Flits)
	n.ports[out].free &^= 1 << uint(g.toSlot) // reserved until the transfer lands
	n.eng.addFlight(n, flight{
		pkt:        p,
		doneAt:     n.cycle + int64(p.Flits),
		toLink:     int32(out),
		toSlot:     g.toSlot,
		toRouter:   int32(n.g.Link(out).To),
		setEscape:  g.cand&candEscape != 0,
		downPhase:  g.cand&candDownPhase != 0,
		productive: g.cand&candProductive != 0,
	})
	n.Counters.SWAllocs++
	n.Counters.VCAllocs++
	n.Counters.XbarFlits += int64(p.Flits)
	return 1
}

// routeCands returns the shared read-only candidate set for a packet at
// router r heading to dst under algorithm k. A stalled packet on an
// unrestricted adaptive function may deroute over any output.
func (n *Network) routeCands(k routing.Kind, r, dst int, phase, stalled bool) []routing.Candidate {
	if stalled && k == routing.AdaptiveMinimal {
		return n.tab.AllOutputs(r, dst)
	}
	return n.tab.Candidates(k, r, dst, phase)
}

// injectBypass reports whether a local head has stalled long enough to
// skip the conservative injection admission (progress guarantee; see
// Config.InjectPatience).
func (n *Network) injectBypass(req *request) bool {
	return n.cfg.InjectPatience > 0 && n.cycle-n.vc[req.vc].readyAt >= int64(n.cfg.InjectPatience)
}

// routerFreeInVN counts free VC slots of virtual network vn across all
// link input ports of the given router.
func (n *Network) routerFreeInVN(router, vn int) int {
	c := 0
	for _, l := range n.inLinks[router] {
		c += bits.OnesCount64(n.freeInVN(l, vn))
	}
	return c
}

// injectFromQueues moves injection-queue heads into free local VCs. The
// injPending count of non-empty queues lets whole cycles skip the
// router × class scan when nothing is waiting.
func (n *Network) injectFromQueues() {
	if n.injPending == 0 {
		return
	}
	for r := 0; r < n.g.N(); r++ {
		n.injectRouterQueues(r)
	}
}

// injectRouterQueues attempts to move each of router r's injection-queue
// heads into a free local VC, reporting whether any queue at r is still
// non-empty afterwards. Injection draws no randomness, so the engines
// can call it on any superset of the routers with queued packets.
func (n *Network) injectRouterQueues(r int) bool {
	pending, emptied := n.injectRouterQueuesInto(r, &n.Counters)
	n.injPending -= emptied
	return pending
}

// injectRouterQueuesInto is injectRouterQueues with the side effects the
// parallel engine must stage per shard made explicit: counter
// increments go to ctr, and the number of queues drained to empty is
// returned instead of applied to n.injPending (the caller reduces the
// deltas in deterministic shard order).
func (n *Network) injectRouterQueuesInto(r int, ctr *Counters) (pending bool, emptied int) {
	for class := 0; class < n.cfg.Classes; class++ {
		q := &n.injQ[r][class]
		p := q.Peek()
		if p == nil {
			continue
		}
		slot, escape, ok := n.freeLocalSlot(r, p.VNet)
		if !ok {
			pending = true
			continue
		}
		q.Pop()
		if q.Len() == 0 {
			emptied++
		} else {
			pending = true
		}
		readyAt := n.cycle + int64(n.cfg.RouterLatency)
		n.occupy(n.localPort(r), slot, p, readyAt)
		n.occIn[r]++
		p.atRouter = r
		p.inLink = LocalPort
		p.slot = slot
		p.InjectedAt = n.cycle
		if escape && !n.cfg.NonStickyEscape {
			p.InEscape = true
		}
		ctr.Injected++
		ctr.BufWrites += int64(p.Flits)
		ctr.noteVNActivity(p.VNet, r, n.cycle, int64(p.Flits))
		n.eng.placed(n, r, readyAt)
	}
	return pending, emptied
}

// freeLocalSlot picks a free local VC in vn, preferring non-escape slots.
func (n *Network) freeLocalSlot(r, vn int) (slot int, escape, ok bool) {
	free := n.freeInVN(n.localPort(r), vn)
	if free == 0 {
		return 0, false, false
	}
	if n.cfg.PolicyEscape && free != 1 {
		free &^= 1 // slot 0 is the escape VC: the last resort
	}
	s := bits.TrailingZeros64(free)
	return vn*n.cfg.VCsPerVN + s, n.cfg.PolicyEscape && s == 0, true
}
