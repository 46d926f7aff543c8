package noc

import (
	"context"
	"math"
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

// Head masks. Each router numbers its input VC slots in gather order —
// in-links ascending, slots ascending within a port, the local port last
// — and keeps its heads' state as bit masks over that numbering, maskW
// words each. Word w of every mask of a router sits together in the
// router's sub-block w (Network.sub): the router masks below, then
// linkMasks masks for each output in Graph.OutLinks order. The masks
// change only when a head does (occupy, promote, a grant, dropWaiting,
// Reconfigure); arbitration reads them with word arithmetic instead of
// regathering every waiting head's request each cycle.
const (
	mLocal   = iota // constant: the slots of the local (injection) port
	mPend           // occupied, head not routed yet (immature, or matured since the last visit)
	mReady          // matured, routed, not sending: the heads arbitration sees
	mEj             // ready heads at their destination router
	mTimed          // ready heads whose candidates change at vcSlot.rerouteAt
	mFlagged        // ready heads with a bit in some output's flag masks
	routerMasks
)

// Per-output masks, at Network.lbase[link] in a sub-block: the ready heads
// naming the link as a non-escape (main) or escape candidate, and — the
// flag masks, rarely set: see mFlagged — which of those candidates are
// detours (not productive) / leave the packet in its up*/down* down
// phase. A flag mask sits flagDetour or flagDown after its candidate
// mask. Where the escape lookup always returns the main one
// (sharedEscape), the escape path reads the main masks and the mEsc ones
// stay empty (Network.escMask).
const (
	mMain = iota
	mEsc
	mMainDetour
	mEscDetour
	mMainDown
	mEscDown
	linkMasks

	flagDetour = mMainDetour - mMain
	flagDown   = mMainDown - mMain
)

// never is the rerouteAt of a head whose candidates do not depend on time.
const never = math.MaxInt64

// option is one feasible (head → output slot) assignment on an output:
// the downstream slot and the arrival effects of the candidate taken.
type option struct {
	toSlot     int32
	setEscape  bool // enters the downstream escape VC and makes the packet sticky
	downPhase  bool
	productive bool
}

// dropHead clears a head (bit of its router's sub-block blk) from every
// mask but the constant mLocal — from the outputs' flag masks only if it
// is in any.
func (n *Network) dropHead(blk []uint64, bit uint64) {
	flagged := blk[mFlagged]&bit != 0
	for i := mPend; i < routerMasks; i++ {
		blk[i] &^= bit
	}
	for i, e := routerMasks, routerMasks+n.escMask; i < len(blk); i, e = i+linkMasks, e+linkMasks {
		blk[i+mMain] &^= bit
		blk[e] &^= bit
		if flagged {
			blk[i+mMainDetour] &^= bit
			blk[e+flagDetour] &^= bit
			blk[i+mMainDown] &^= bit
			blk[e+flagDown] &^= bit
		}
	}
}

// Step advances the network by one cycle: completes arrivals, performs
// switch/VC allocation (unless frozen), and moves injection-queue heads
// into free local VCs. The caller consumes ejection queues afterwards.
// The cycle body is dispatched through the configured engine (event or
// dense); both drive the same mutation paths below and are
// byte-identical — see DESIGN.md §"Event-driven core".
func (n *Network) Step() {
	n.cycle++
	n.eng.step(n)
}

// freeUpstream releases the input VC slot the departed packet p still
// names as its position.
func (n *Network) freeUpstream(p *Packet) {
	n.vacate(n.portOf(p.inLink, p.atRouter), p.slot)
	n.Counters.BufReads += int64(p.Flits)
}

// land applies the effects of a completed transfer.
func (n *Network) land(f flight) {
	p := f.pkt
	n.freeUpstream(p)
	if f.eject {
		n.pushEject(int(f.toRouter), p)
		return
	}
	readyAt := n.cycle + int64(n.cfg.RouterLatency)
	toRouter := int(f.toRouter)
	n.occupy(toRouter, int(f.toLink), int(f.toSlot), p, readyAt)
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
		n.Counters.Misroutes++
	}
	n.Counters.Hops++
	n.Counters.LinkFlits += int64(p.Flits)
	n.Counters.BufWrites += int64(p.Flits)
	n.Counters.noteVNActivity(p.VNet, toRouter, n.cycle, int64(p.Flits))
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

// allocateRouter arbitrates router r's output ports among its input VCs.
// It returns how many input VC heads were eligible to move this cycle
// (whether or not any output they name could be granted) and how many
// were granted an output; the event engine clears r's activity bit only
// when the two are equal, so a head that is blocked, loses arbitration,
// or is merely waiting to become stalled-enough to deroute keeps the
// router in the active set.
func (n *Network) allocateRouter(r int) (eligible, granted int) {
	// One matured head and nothing routed needs no arbitration; if it
	// cannot move, nothing was written or drawn and the visit goes on.
	if b := n.loneHead(r); b >= 0 && n.grantLone(r, b) {
		return 1, 1
	}
	eligible, ejecting := n.promote(r)
	// Eject port first (it frees VCs fastest and models priority to
	// sinking traffic), then each output link in Graph.OutLinks order.
	if ejecting > 0 && n.ejectBusy[r] <= n.cycle {
		if count := n.buildEjectOptions(r); count != 0 {
			n.commitEject(r, count)
			granted++
		}
	}
	if eligible == ejecting {
		return eligible, granted // no head bound elsewhere: no output has a taker
	}
	for _, out := range n.g.OutLinks(r) {
		if n.linkBusy[out] > n.cycle || n.ports[out].free == 0 || !n.named(r, out) {
			continue
		}
		if count, productive := n.linkOptions(r, out); count != 0 {
			n.commitLinkGrant(r, out, count, productive)
			granted++
		}
	}
	return eligible, granted
}

// loneHead returns the number of router r's one pending head that has
// matured when the router has no ready head and no second matured one
// (immature pending heads do not count), else -1.
func (n *Network) loneHead(r int) int {
	lone := -1
	for w := 0; w < n.maskW; w++ {
		blk := n.sub(r, w)
		if blk[mReady] != 0 {
			return -1
		}
		for m := blk[mPend]; m != 0; m &= m - 1 {
			if b := w<<6 + bits.TrailingZeros64(m); n.rerouteAt[int(n.heads[r])+b] <= n.cycle {
				if lone >= 0 {
					return -1
				}
				lone = b
			}
		}
	}
	return lone
}

// ejectPort is loneOption's output for the eject port.
const ejectPort = -1

// loneOption decides where router r's lone head b goes this cycle from
// the routing table and the slot masks alone: the general visit would
// route it, offer it alone on the eject port or on each idle output it
// names in ascending link order, and grant the first non-empty option
// set. ok is false when it cannot move.
func (n *Network) loneOption(r, b int) (out int, g option, ok bool) {
	slot := n.head(r, b)
	p := slot.pkt
	if int(slot.dst) == r {
		return ejectPort, option{}, n.ejectBusy[r] <= n.cycle && n.ejectSpace(r, p.Class)
	}
	main, esc, _ := n.candidates(r, slot, n.cycle)
	local, base := p.inLink == LocalPort, p.VNet*n.cfg.VCsPerVN
	// Both lists ascend by link ID (Graph.OutLinks order): merge them.
	for i, j := 0, 0; i < len(main) || j < len(esc); {
		inMain := j == len(esc) || i < len(main) && main[i].LinkID() <= esc[j].LinkID()
		inEsc := i == len(main) || j < len(esc) && esc[j].LinkID() <= main[i].LinkID()
		var mc, ec routing.Candidate
		if inEsc {
			ec, out, j = esc[j], esc[j].LinkID(), j+1
		}
		if inMain {
			mc, out, i = main[i], main[i].LinkID(), i+1
		}
		if n.linkBusy[out] > n.cycle {
			continue
		}
		// As linkOptions: slot 0 is the escape VC, reachable only via the
		// escape path, which applies only when the non-escape path does not.
		free := n.freeInVN(out, p.VNet)
		viaEsc := inEsc && free&1 != 0
		if n.cfg.PolicyEscape {
			free &^= 1
		}
		viaMain := inMain && free != 0
		if local && (viaMain || viaEsc) && !n.conservativeOK(out, p.VNet) {
			viaMain, viaEsc = false, viaEsc && n.injectBypass(slot)
		}
		if viaMain {
			return out, option{toSlot: int32(base + bits.TrailingZeros64(free)), downPhase: mc.DownPhase(), productive: mc.Productive()}, true
		}
		if viaEsc {
			return out, option{toSlot: int32(base), setEscape: !n.cfg.NonStickyEscape, downPhase: ec.DownPhase(), productive: ec.Productive()}, true
		}
	}
	return 0, option{}, false
}

// grantLone grants the lone head b of router r the output loneOption
// finds, if any, drawing what arbitration draws for a one-option set. The
// head was never routed, so its pending bit is all there is to clear.
func (n *Network) grantLone(r, b int) bool {
	out, g, ok := n.loneOption(r, b)
	if !ok {
		return false
	}
	n.rng.IntN(1)
	if out == ejectPort {
		n.startEject(r, b)
	} else {
		n.startLink(r, b, out, g)
	}
	n.sub(r, b>>6)[mPend] &^= 1 << uint(b&63)
	n.loneGrants++
	return true
}

// named reports whether any ready head of router r names its output link
// out as a candidate.
func (n *Network) named(r, out int) bool {
	for w, lo := 0, int(n.lbase[out]); w < n.maskW; w++ {
		if blk := n.sub(r, w); blk[mReady]&(blk[lo+mMain]|blk[lo+n.escMask]) != 0 {
			return true
		}
	}
	return false
}

// promote brings router r's masks up to this cycle and returns how many
// ready heads it then has, and how many of those are at their
// destination: pending heads that have matured are routed — the one
// candidate lookup of their stay — and become ready, and ready heads
// crossing the DerouteAfter threshold are routed again. The due test
// reads Network.rerouteAt alone: only a head that is due loads its slot.
func (n *Network) promote(r int) (ready, ejecting int) {
	at := n.rerouteAt[n.heads[r]:]
	for w := 0; w < n.maskW; w++ {
		blk := n.sub(r, w)
		var due uint64
		for m := blk[mPend] | blk[mTimed]; m != 0; m &= m - 1 {
			// Branch-free: the sign of at-cycle-1 is set when the head is due.
			due |= m & -m & uint64((at[w<<6+bits.TrailingZeros64(m)]-n.cycle-1)>>63)
		}
		for ; due != 0; due &= due - 1 {
			b, bit := w<<6+bits.TrailingZeros64(due), due&-due
			if blk[mPend]&bit == 0 {
				n.dropHead(blk, bit)
			}
			blk[mPend] &^= bit
			blk[mReady] |= bit
			at[b] = n.route(blk, r, n.head(r, b), n.cycle, bit)
		}
		ready += bits.OnesCount64(blk[mReady])
		ejecting += bits.OnesCount64(blk[mEj])
	}
	return ready, ejecting
}

// route files a ready head of router r (bit of sub-block blk, held in
// slot) under the outputs it may take as of cycle `at`, and returns when
// that answer next changes with the passage of time alone (never if it
// does not). blk is the router's own sub-block, or CheckInvariants'
// recomputation of it.
func (n *Network) route(blk []uint64, r int, slot *vcSlot, at int64, bit uint64) (next int64) {
	if int(slot.dst) == r {
		blk[mEj] |= bit
		return never
	}
	main, esc, next := n.candidates(r, slot, at)
	n.fileUnder(blk, main, mMain, bit)
	if n.escMask != mMain {
		n.fileUnder(blk, esc, mEsc, bit)
	}
	if next != never {
		blk[mTimed] |= bit
	}
	return next
}

// candidates returns the outputs the head in slot, at router r and bound
// elsewhere, may take as of cycle `at` — into a non-escape VC (main) and
// into the escape VC (esc) downstream — and when that answer next changes
// with the passage of time alone (never if it does not). The slices are
// the routing table's shared read-only sets.
func (n *Network) candidates(r int, slot *vcSlot, at int64) (main, esc []routing.Candidate, next int64) {
	dst, waited, next := int(slot.dst), at-slot.readyAt, int64(never)
	// A long-stalled packet on an unrestricted (adaptive) routing
	// function may deroute over any output, including U-turns.
	stalled := false
	if d := int64(n.cfg.DerouteAfter); d > 0 {
		if stalled = waited >= d; !stalled {
			next = slot.readyAt + d
		}
	}
	if n.escMask == mMain { // one lookup answers both, and reads no packet state
		main = n.routeCands(n.cfg.Routing, r, dst, false, stalled)
		return main, main, next
	}
	// Escape discipline (paper §III-A): a packet in an escape VC may only
	// continue on escape VCs under EscapeRouting; others may use either
	// (and start their up*/down* walk fresh as they enter the escape
	// network).
	p, escape := slot.pkt, n.cfg.PolicyEscape
	if !escape || !p.InEscape {
		main = n.routeCands(n.cfg.Routing, r, dst, p.DownPhase, stalled)
	}
	if escape {
		esc = n.routeCands(n.cfg.EscapeRouting, r, dst, p.DownPhase && p.InEscape, stalled)
	}
	return main, esc, next
}

// fileUnder sets bit in the kind mask (mMain or mEsc), and in the flag
// masks that apply, of every output among cands.
func (n *Network) fileUnder(blk []uint64, cands []routing.Candidate, kind int, bit uint64) {
	for _, c := range cands {
		i := int(n.lbase[c.LinkID()]) + kind
		blk[i] |= bit
		if !c.Productive() {
			blk[i+flagDetour] |= bit
			blk[mFlagged] |= bit
		}
		if c.DownPhase() {
			blk[i+flagDown] |= bit
			blk[mFlagged] |= bit
		}
	}
}

// buildEjectOptions leaves in n.optMain the ready heads that could take
// r's eject port this cycle and returns how many there are.
func (n *Network) buildEjectOptions(r int) (count int) {
	for w := range n.optMain {
		blk := n.sub(r, w)
		opt := blk[mReady] & blk[mEj]
		for m := opt; m != 0; m &= m - 1 {
			if !n.ejectSpace(r, n.head(r, w<<6+bits.TrailingZeros64(m)).pkt.Class) {
				opt &^= m & -m
			}
		}
		n.optMain[w] = opt
		count += bits.OnesCount64(opt)
	}
	return count
}

// commitEject draws the eject-port winner among the count (> 0) options
// in n.optMain and applies the grant. Must run serially in ascending
// router order (it consumes the shared RNG).
func (n *Network) commitEject(r, count int) {
	b := nthBit(n.optMain, n.rng.IntN(count))
	n.dropHead(n.sub(r, b>>6), 1<<uint(b&63))
	n.startEject(r, b)
}

// startEject starts the transfer of router r's head b, granted the
// router's eject port; the caller takes it out of the head masks.
func (n *Network) startEject(r, b int) {
	slot := n.head(r, b)
	p := slot.pkt
	slot.sending, n.rerouteAt[int(n.heads[r])+b] = true, never
	n.ejectBusy[r] = n.cycle + int64(p.Flits)
	n.eng.addFlight(n, flight{
		pkt: p, doneAt: n.cycle + int64(p.Flits), eject: true, toLink: -1, toRouter: int32(r),
	})
	n.Counters.SWAllocs++
	n.Counters.XbarFlits += int64(p.Flits)
	n.Counters.noteVNActivity(p.VNet, r, n.cycle, int64(p.Flits))
}

// nthBit returns the index of the k-th (from 0) set bit of opt.
func nthBit(opt []uint64, k int) int {
	for w, m := range opt {
		if c := bits.OnesCount64(m); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			m &= m - 1
		}
		return w<<6 + bits.TrailingZeros64(m)
	}
	panic("noc: option draw beyond the option set")
}

// linkOptions returns how many heads of router r have a feasible
// assignment on its idle output link `out` (whose downstream port has a
// free slot), and how many of those by a productive hop; when any do, it
// leaves them in n.optMain and n.optEsc — through a non-escape VC and
// through the escape VC downstream respectively; no head is in both. Ascending bit order is gather order,
// so the set and its order are those of asking every waiting head about
// the output. Everything read here is stable for the whole allocation
// phase — an output link is granted at most once per cycle and belongs
// to one source router — except the ready mask, which loses the heads
// granted an earlier output of this router, and the single-VC bubble
// rule (routerFreeInVN of the *target* router), which other routers'
// same-cycle grants change; that is why options are built at the
// output's turn in the serial order and not before.
func (n *Network) linkOptions(r, out int) (count, productive int) {
	free, lo := n.ports[out].free, int(n.lbase[out])
	esc := lo + n.escMask
	for w := range n.optMain {
		blk := n.sub(r, w)
		var ms, es uint64
		for vn := 0; vn < n.cfg.VNets; vn++ {
			fv := free >> uint(vn*n.cfg.VCsPerVN) & n.vnMask
			elig := blk[mReady] & n.vnBits[vn*n.maskW+w]
			var m, e uint64
			if n.cfg.PolicyEscape {
				if fv&1 != 0 {
					e = elig & blk[esc]
				}
				fv &^= 1 // slot 0 is the escape VC: reachable only via the escape path
			}
			if fv != 0 {
				m = elig & blk[lo+mMain]
			}
			if loc := (m | e) & blk[mLocal]; loc != 0 && !n.conservativeOK(out, vn) {
				// No ordinary buffer for local heads. A long-stalled one
				// may still claim the escape slot: drains guarantee escape
				// buffers keep turning over, so this bounded bypass
				// restores the injection-progress guarantee (§III-D2)
				// without letting injection pack ordinary buffers to 100%.
				m &^= loc
				for lb := e & loc; lb != 0; lb &= lb - 1 {
					if !n.injectBypass(n.head(r, w<<6+bits.TrailingZeros64(lb))) {
						e &^= lb & -lb
					}
				}
			}
			ms |= m
			es |= e &^ m // the escape path applies only when the non-escape path does not
		}
		n.optMain[w], n.optEsc[w] = ms, es
		count += bits.OnesCount64(ms | es)
		productive += bits.OnesCount64(ms&^blk[lo+mMainDetour] | es&^blk[esc+flagDetour])
	}
	return count, productive
}

// conservativeOK is the conservative VC allocation rule at the injection
// port (paper §II-C: fully adaptive routing pairs with conservative
// allocation): a locally injected packet may not claim the last free VC
// of the downstream port's VN, so through-traffic always has a hole to
// move into and the network cannot self-jam into 100% occupancy. With
// single-VC virtual networks the port rule degenerates, so a
// bubble-flow-control-style router rule applies instead: the target
// router must retain a second free buffer in the VN.
func (n *Network) conservativeOK(out, vn int) bool {
	if n.cfg.VCsPerVN == 1 {
		return n.freeInVN(out, vn) != 0 && n.routerFreeInVN(n.g.Link(out).To, vn) >= 2
	}
	return bits.OnesCount64(n.freeInVN(out, vn)) >= 2
}

// optionAt expands option bit b of output out (a bit of n.optMain or
// n.optEsc as linkOptions left them): the head holding packet p, in its
// router's sub-block blk.
func (n *Network) optionAt(blk []uint64, out, b int, p *Packet) option {
	w, sh := b>>6, uint(b&63)
	esc := n.optEsc[w]>>sh&1 != 0
	i, free := int(n.lbase[out])+mMain, n.freeInVN(out, p.VNet)
	if esc {
		i, free = int(n.lbase[out])+n.escMask, 1
	} else if n.cfg.PolicyEscape {
		free &^= 1
	}
	return option{
		toSlot:     int32(p.VNet*n.cfg.VCsPerVN + bits.TrailingZeros64(free)),
		setEscape:  esc && !n.cfg.NonStickyEscape,
		downPhase:  blk[i+flagDown]>>sh&1 != 0,
		productive: blk[i+flagDetour]>>sh&1 == 0,
	}
}

// commitLinkGrant draws the winner among the count (> 0) options
// linkOptions left for output out, productive of them productive,
// and applies the grant. Must run serially in ascending (router, output)
// order — it consumes the shared RNG, and the option sets of later
// outputs depend on earlier winners through the ready mask.
func (n *Network) commitLinkGrant(r, out, count, productive int) {
	// Prefer productive grants: deroutes only win an output no minimal
	// packet wants, keeping misrouting a last resort.
	if lo := int(n.lbase[out]); productive > 0 && productive < count {
		count = productive
		for w := range n.optMain {
			blk := n.sub(r, w)
			n.optMain[w] &^= blk[lo+mMainDetour]
			n.optEsc[w] &^= blk[lo+n.escMask+flagDetour]
		}
	}
	for w, e := range n.optEsc {
		n.optMain[w] |= e // optEsc still tells which path the winner takes
	}
	b := nthBit(n.optMain, n.rng.IntN(count))
	slot, blk := n.head(r, b), n.sub(r, b>>6)
	g := n.optionAt(blk, out, b, slot.pkt)
	n.dropHead(blk, 1<<uint(b&63))
	n.startLink(r, b, out, g)
}

// startLink starts the transfer of router r's head b over output link out
// as option g has it; the caller takes it out of the head masks.
func (n *Network) startLink(r, b, out int, g option) {
	slot := n.head(r, b)
	p := slot.pkt
	slot.sending, n.rerouteAt[int(n.heads[r])+b] = true, never
	n.linkBusy[out] = n.cycle + int64(p.Flits)
	n.ports[out].free &^= 1 << uint(g.toSlot) // reserved until the transfer lands
	n.eng.addFlight(n, flight{
		pkt:        p,
		doneAt:     n.cycle + int64(p.Flits),
		toLink:     int32(out),
		toSlot:     g.toSlot,
		toRouter:   int32(n.g.Link(out).To),
		setEscape:  g.setEscape,
		downPhase:  g.downPhase,
		productive: g.productive,
	})
	n.Counters.SWAllocs++
	n.Counters.VCAllocs++
	n.Counters.XbarFlits += int64(p.Flits)
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
func (n *Network) injectBypass(slot *vcSlot) bool {
	return n.cfg.InjectPatience > 0 && n.cycle-slot.readyAt >= int64(n.cfg.InjectPatience)
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
func (n *Network) injectRouterQueues(r int) (pending bool) {
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
			n.injPending--
		} else {
			pending = true
		}
		readyAt := n.cycle + int64(n.cfg.RouterLatency)
		n.occupy(r, n.localPort(r), slot, p, readyAt)
		p.atRouter = r
		p.inLink = LocalPort
		p.slot = slot
		p.InjectedAt = n.cycle
		if escape && !n.cfg.NonStickyEscape {
			p.InEscape = true
		}
		n.Counters.Injected++
		n.Counters.BufWrites += int64(p.Flits)
		n.Counters.noteVNActivity(p.VNet, r, n.cycle, int64(p.Flits))
		n.eng.placed(n, r, readyAt)
	}
	return pending
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
