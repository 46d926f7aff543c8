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
	for vn := 0; vn < n.cfg.VNets; vn++ {
		slot := n.cfg.EscapeSlot(vn)
		moved := n.scrPkts[:n.g.NumLinks()] // new occupant per link
		clear(moved)
		for l := 0; l < n.g.NumLinks(); l++ {
			p := n.slot(l, slot).pkt
			if p == nil {
				continue
			}
			n.dropWaiting(p.atRouter, l, slot) // successors are seated after the sweep
			d := next[l]
			to := n.g.Link(d).To
			n.forceHop(p, to)
			p.DrainHops++
			n.Counters.DrainMoves++
			if p.Dst == to && n.ejectSpace(to, p.Class) {
				n.pushEject(to, p)
				rep.Ejected++
				continue
			}
			moved[d] = p
			rep.Moved++
		}
		for l, p := range moved {
			if p != nil {
				n.seat(p, n.g.Link(l).To, l, slot, n.cycle+1)
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
	for i, p := range pkts {
		n.forceHop(p, n.g.Link(refs[(i+1)%len(refs)].Link).To)
		p.SpinHops++
		n.Counters.SpinMoves++
		n.dropWaiting(p.atRouter, refs[i].Link, refs[i].Slot) // successors are seated after the sweep
	}
	for i, p := range pkts {
		nxt := refs[(i+1)%len(refs)]
		n.seat(p, n.g.Link(nxt.Link).To, nxt.Link, nxt.Slot, n.cycle+1)
	}
	return nil
}

// forceHop applies the effects of a hop a rotation forces on the buffered
// packet p, to router `to`: the misroute test and the hop counters. A
// forced turn invalidates any up*/down* phase bookkeeping (DRAIN's escape
// VC is unrestricted), so the phase restarts.
func (n *Network) forceHop(p *Packet, to int) {
	if n.tab.Dist(to, p.Dst) >= n.tab.Dist(p.atRouter, p.Dst) {
		p.Misroutes++
		n.Counters.Misroutes++
	}
	p.Hops++
	p.DownPhase = false
	n.Counters.Hops++
	n.Counters.LinkFlits += int64(p.Flits)
	n.Counters.noteVNActivity(p.VNet, to, n.cycle, int64(p.Flits))
}
