package noc

import "errors"

// VCRef identifies one link VC buffer (the escape or ordinary VC at the
// input port fed by Link).
type VCRef struct {
	Link int
	Slot int
}

// ErrNotQuiesced is returned when a rotation is attempted while link
// transfers are still in flight (the pre-drain window must complete
// first).
var ErrNotQuiesced = errors.New("noc: network has in-flight transfers; pre-drain incomplete")

// Rotation errors (package-level so the rotation paths, which run
// mid-simulation and are hotalloc roots, never construct one).
var (
	errRotateNotFrozen = errors.New("noc: DrainRotate requires a frozen network")
	errRotatePathLen   = errors.New("noc: drain path does not cover exactly the topology's links")
	errCycleLen        = errors.New("noc: rotation cycle needs at least 2 and at most every link VC")
	errCycleSlot       = errors.New("noc: a rotation cycle position is empty or holds a moving packet")
	errCycleTurn       = errors.New("noc: consecutive rotation cycle positions are not joined by a turn")
)

// DrainReport summarizes one drain rotation.
type DrainReport struct {
	Moved   int // packets forced one hop
	Ejected int // packets that reached their destination and left
}

// DrainRotate forces every packet in every escape VC one hop along the
// drain path: next[linkID] is the successor link. The rotation is a
// simultaneous permutation, so it always succeeds; packets landing at
// their destination router eject when the class queue has room (paper
// §III-C2 "Drain Window"). The network must be frozen and quiesced.
func (n *Network) DrainRotate(next []int) (DrainReport, error) {
	var rep DrainReport
	if !n.frozen {
		return rep, errRotateNotFrozen
	}
	if n.eng.inflightCount() > 0 {
		return rep, ErrNotQuiesced
	}
	if len(next) != n.g.NumLinks() {
		return rep, errRotatePathLen
	}
	readyAt := n.cycle + int64(n.cfg.RouterLatency)
	for vn := 0; vn < n.cfg.VNets; vn++ {
		slot := n.cfg.EscapeSlot(vn)
		moved := n.scrPkts[:n.g.NumLinks()] // new occupant per link
		clear(moved)
		for l := 0; l < n.g.NumLinks(); l++ {
			p := n.slot(l, slot).pkt
			if p == nil {
				continue
			}
			oldRouter := p.atRouter
			n.dropWaiting(oldRouter, l, slot) // successors are installed after the sweep
			d := next[l]
			target := n.g.Link(d)
			p.Hops++
			p.DrainHops++
			n.Counters.Hops++
			n.Counters.DrainMoves++
			n.Counters.LinkFlits += int64(p.Flits)
			n.Counters.noteVNActivity(p.VNet, target.To, n.cycle, int64(p.Flits))
			if n.tab.Dist(target.To, p.Dst) >= n.tab.Dist(oldRouter, p.Dst) {
				p.Misroutes++
				n.Counters.Misroutes++
			}
			if p.Dst == target.To && n.ejectSpace(target.To, p.Class) {
				n.pushEject(target.To, p)
				rep.Ejected++
				continue
			}
			p.atRouter = target.To
			p.inLink = d
			p.slot = slot
			n.eng.placed(n, target.To, readyAt)
			// A forced turn invalidates any up*/down* phase bookkeeping;
			// DRAIN's escape VC is unrestricted so the phase restarts.
			p.DownPhase = false
			moved[d] = p
			rep.Moved++
		}
		for l, p := range moved {
			if p != nil {
				n.occupy(p.atRouter, l, slot, p, readyAt)
			}
		}
	}
	return rep, nil
}

// RotateBlockedCycle forces the packets occupying the given cyclic chain
// of VC buffers to each move one hop into the next buffer (SPIN's
// coordinated forced movement). refs[i]'s packet moves into refs[i+1];
// the last moves into refs[0]. All refs must be occupied by non-moving
// packets, and consecutive refs must be joined by a legal turn.
func (n *Network) RotateBlockedCycle(refs []VCRef) error {
	if len(refs) < 2 || len(refs) > len(n.scrPkts) {
		return errCycleLen
	}
	pkts := n.scrPkts[:len(refs)]
	for i, ref := range refs {
		slot := n.slot(ref.Link, ref.Slot)
		p := slot.pkt
		if p == nil || slot.sending {
			return errCycleSlot
		}
		if n.g.Link(refs[(i+1)%len(refs)].Link).From != n.g.Link(ref.Link).To {
			return errCycleTurn
		}
		pkts[i] = p
	}
	readyAt := n.cycle + int64(n.cfg.RouterLatency)
	for i := range refs {
		nxt := refs[(i+1)%len(refs)]
		p := pkts[i]
		target := n.g.Link(nxt.Link)
		if n.tab.Dist(target.To, p.Dst) >= n.tab.Dist(p.atRouter, p.Dst) {
			p.Misroutes++
			n.Counters.Misroutes++
		}
		n.dropWaiting(p.atRouter, refs[i].Link, refs[i].Slot) // successors are installed after the sweep
		p.atRouter = target.To
		p.inLink = nxt.Link
		p.slot = nxt.Slot
		n.eng.placed(n, target.To, readyAt)
		p.Hops++
		p.SpinHops++
		p.DownPhase = false
		n.Counters.Hops++
		n.Counters.SpinMoves++
		n.Counters.LinkFlits += int64(p.Flits)
		n.Counters.noteVNActivity(p.VNet, target.To, n.cycle, int64(p.Flits))
	}
	for i, ref := range refs {
		p := pkts[(i-1+len(pkts))%len(pkts)]
		n.occupy(p.atRouter, ref.Link, ref.Slot, p, readyAt)
	}
	return nil
}
