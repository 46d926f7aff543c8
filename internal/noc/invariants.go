package noc

import "fmt"

// CheckInvariants validates internal consistency; tests call it between
// steps. It returns the first violation found.
func (n *Network) CheckInvariants() error {
	seen := make(map[int64]string)
	note := func(p *Packet, where string) error {
		if p.pooled {
			return fmt.Errorf("noc: packet %d at %s is marked pooled (use after release)", p.ID, where)
		}
		if prev, dup := seen[p.ID]; dup {
			return fmt.Errorf("noc: packet %d in two places: %s and %s", p.ID, prev, where)
		}
		seen[p.ID] = where
		return nil
	}
	// Every occupied slot: mask, mirror and position agreement, and the
	// VC discipline for link ports.
	if err := n.eachSlot(func(router, port, s int, slot *vcSlot) error {
		p := slot.pkt
		where := fmt.Sprintf("port %d slot %d", port, s)
		if err := note(p, where); err != nil {
			return err
		}
		if p.atRouter != router || n.portOf(p.inLink, router) != port || p.slot != s {
			return fmt.Errorf("noc: packet %d position fields (%d,%d,%d) disagree with %s at router %d",
				p.ID, p.atRouter, p.inLink, p.slot, where, router)
		}
		if int(slot.dst) != p.Dst {
			return fmt.Errorf("noc: %s mirrors destination %d, packet %d says %d", where, slot.dst, p.ID, p.Dst)
		}
		if p.VNet != s/n.cfg.VCsPerVN {
			return fmt.Errorf("noc: packet %d of VN %d occupies slot %d of VN %d", p.ID, p.VNet, s, s/n.cfg.VCsPerVN)
		}
		if p.inLink != LocalPort && n.cfg.PolicyEscape && p.InEscape && !n.cfg.IsEscapeSlot(s) {
			return fmt.Errorf("noc: escape packet %d occupies non-escape slot %d", p.ID, s)
		}
		if n.stickyAt(s) && !p.InEscape {
			return fmt.Errorf("noc: packet %d in escape %s is not sticky", p.ID, where)
		}
		if p.InEscape && n.cfg.NonStickyEscape { // the shared escape mask relies on it
			return fmt.Errorf("noc: packet %d at %s is marked InEscape under non-sticky escape", p.ID, where)
		}
		return nil
	}); err != nil {
		return err
	}
	// The per-port masks are derived state: occ marks exactly the slots
	// holding a packet, free is disjoint from it, and the slots in
	// neither (reserved) are exactly the targets of pending transfers.
	reserved := make([]uint64, len(n.ports))
	var flightErr error
	n.eng.eachFlight(func(f *flight) {
		if flightErr != nil {
			return
		}
		if !n.slotOf(f.pkt).sending {
			flightErr = fmt.Errorf("noc: in-flight packet %d not marked sending", f.pkt.ID)
			return
		}
		if !f.eject {
			if reserved[f.toLink]>>uint(f.toSlot)&1 != 0 {
				flightErr = fmt.Errorf("noc: two transfers target link %d slot %d", f.toLink, f.toSlot)
			}
			reserved[f.toLink] |= 1 << uint(f.toSlot)
		}
	})
	if flightErr != nil {
		return flightErr
	}
	all := uint64(1)<<uint(n.vcPerPort) - 1
	for port, pm := range n.ports {
		var held uint64
		for s := 0; s < n.vcPerPort; s++ {
			slot := n.slot(port, s)
			if slot.pkt != nil {
				held |= 1 << uint(s)
			} else if at := n.rerouteAt[int(pm.first)+s]; *slot != (vcSlot{}) || at != 0 {
				return fmt.Errorf("noc: port %d slot %d is empty but keeps head state %+v, reroute at %d", port, s, *slot, at)
			}
		}
		if pm.occ != held || pm.free&pm.occ != 0 || pm.free|pm.occ|reserved[port] != all || pm.free&reserved[port] != 0 {
			return fmt.Errorf("noc: port %d masks occ=%b free=%b, recount occupied=%b reserved=%b", port, pm.occ, pm.free, held, reserved[port])
		}
	}
	if err := n.checkHeadMasks(); err != nil {
		return err
	}
	// Failed links must be draining-only: no reservations (their flights
	// were dropped at reconfiguration) and no buffered non-sending
	// packets (evacuated or dropped); only a sending occupant departing
	// over a surviving link may remain until its flight lands.
	for l := range n.linkDown {
		if !n.linkDown[l] {
			continue
		}
		if reserved[l] != 0 {
			return fmt.Errorf("noc: failed link %d has reserved slots %b", l, reserved[l])
		}
		for s := 0; s < n.vcPerPort; s++ {
			if slot := n.slot(l, s); slot.pkt != nil && !slot.sending {
				return fmt.Errorf("noc: failed link %d slot %d holds stranded packet %d", l, s, slot.pkt.ID)
			}
		}
	}
	// Note every queued packet, so the pool check below sees the complete
	// live set.
	for r := 0; r < n.g.N(); r++ {
		for c := range n.injQ[r] {
			q := &n.injQ[r][c]
			for i := 0; i < q.n; i++ {
				if err := note(q.buf[(q.head+i)%len(q.buf)], fmt.Sprintf("injQ[%d][%d]", r, c)); err != nil {
					return err
				}
			}
		}
		for c := range n.ejQ[r] {
			q := &n.ejQ[r][c]
			for i := 0; i < q.n; i++ {
				if err := note(q.buf[(q.head+i)%len(q.buf)], fmt.Sprintf("ejQ[%d][%d]", r, c)); err != nil {
					return err
				}
			}
		}
	}
	// Pool safety: every free-list entry is marked pooled, appears only
	// once, and is not simultaneously live anywhere the sweeps above saw —
	// a packet may never be both free and in flight.
	freeSeen := make(map[*Packet]bool, len(n.freePkts))
	for i, p := range n.freePkts {
		if !p.pooled {
			return fmt.Errorf("noc: free-list entry %d (packet %d) not marked pooled", i, p.ID)
		}
		if freeSeen[p] {
			return fmt.Errorf("noc: packet %d appears twice in the free list (double release)", p.ID)
		}
		freeSeen[p] = true
		if where, live := seen[p.ID]; live {
			return fmt.Errorf("noc: packet %d is both free and live at %s", p.ID, where)
		}
	}
	// Engine-internal invariants (timing wheel, activity bitmaps).
	return n.eng.check(n)
}

// checkHeadMasks recomputes the head masks, one sub-block at a time, from
// the slots and the routing table and compares. A sending head is in no
// mask and has no reroute time; any other is pending or ready, never
// both, and pending while immature. A ready head's candidates are those
// of the last cycle before its rerouteAt (or of now, if that is earlier):
// no threshold lies between the cycle it was routed and that one, and
// route must name rerouteAt as the next.
func (n *Network) checkHeadMasks() error {
	for r := 0; r < n.g.N(); r++ {
		slots := (len(n.inLinks[r]) + 1) * n.vcPerPort
		for w := 0; w < n.maskW; w++ {
			got := n.sub(r, w)
			want := make([]uint64, len(got))
			for b := w << 6; b < min(w<<6+64, slots); b++ {
				bit := uint64(1) << uint(b&63)
				if b >= slots-n.vcPerPort {
					want[mLocal] |= bit
				}
				slot, at := n.head(r, b), n.rerouteAt[int(n.heads[r])+b]
				if slot.pkt == nil {
					continue
				}
				if slot.sending {
					if at != never {
						return fmt.Errorf("noc: departing head of packet %d (router %d slot %d) is still due for routing at %d", slot.pkt.ID, r, b, at)
					}
					continue
				}
				pending, ready := got[mPend]&bit != 0, got[mReady]&bit != 0
				if pending == ready || ready && slot.readyAt > n.cycle {
					return fmt.Errorf("noc: head of packet %d (router %d slot %d, ready at %d): pending=%v ready=%v at cycle %d",
						slot.pkt.ID, r, b, slot.readyAt, pending, ready, n.cycle)
				}
				if pending {
					if at != slot.readyAt {
						return fmt.Errorf("noc: pending head of packet %d (router %d slot %d) is due for routing at %d, ready at %d", slot.pkt.ID, r, b, at, slot.readyAt)
					}
					want[mPend] |= bit
					continue
				}
				want[mReady] |= bit
				if next := n.route(want, r, slot, min(n.cycle, at-1), bit); next != at {
					return fmt.Errorf("noc: head of packet %d (router %d slot %d) reroutes at %d, its route says %d", slot.pkt.ID, r, b, at, next)
				}
			}
			for i := range want {
				if want[i] != got[i] {
					return fmt.Errorf("noc: router %d masks, word %d: mask %d (router masks, then %d per output) is %b, recomputed %b", r, w, i, linkMasks, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// eachSlot calls fn for every occupied input VC slot (port, s), link
// ports first then local ports, with the router that buffers it; it
// stops at the first error.
func (n *Network) eachSlot(fn func(router, port, s int, slot *vcSlot) error) error {
	for port := range n.ports {
		router := port - n.g.NumLinks()
		if router < 0 {
			router = n.g.Link(port).To
		}
		for s := 0; s < n.vcPerPort; s++ {
			if slot := n.slot(port, s); slot.pkt != nil {
				if err := fn(router, port, s, slot); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// hasQueued reports whether any injection queue of router r is non-empty.
func (n *Network) hasQueued(r int) bool {
	for c := range n.injQ[r] {
		if n.injQ[r][c].Len() > 0 {
			return true
		}
	}
	return false
}
