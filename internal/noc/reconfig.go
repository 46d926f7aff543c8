package noc

import (
	"errors"
	"math/bits"

	"drain/internal/routing"
	"drain/internal/topology"
)

// ReconfigReport summarizes one live topology reconfiguration.
type ReconfigReport struct {
	LinksFailed   int // unidirectional links newly marked down
	LinksRestored int // unidirectional links newly marked up
	Rerouted      int // buffered packets evacuated off failed links
	Dropped       int // packets dropped (in flight over, or stranded in, failed links)
}

// Reconfigure errors (package-level so the alloc-free reconfig path
// never constructs one dynamically).
var (
	errReconfigNilTable   = errors.New("noc: Reconfigure requires a routing table built over the active subgraph")
	errReconfigWrongGraph = errors.New("noc: Reconfigure table was not built over the given active subgraph")
	errReconfigRouters    = errors.New("noc: active subgraph has a different router count")
	errReconfigNotSubset  = errors.New("noc: active subgraph has links outside the full topology")
)

// Reconfigure applies a live topology change: active is the subgraph of
// the construction-time graph that is currently fault-free, and tab is a
// routing table built over it with candidates expressed in the full
// graph's link-ID space (routing.NewTableRemapped). The full graph and
// every linkID-indexed array keep their dense numbering; failed links
// become a linkDown overlay that no hot path consults — they simply
// vanish from every candidate set, so arbitration of a failed output
// builds zero options and draws no randomness, independent of engine.
//
// In-flight packets are preserved where possible:
//
//   - transfers already on a newly failed link are dropped (the flit
//     stream is cut mid-wire): upstream slot freed, downstream
//     reservation cleared, counted in Counters.FaultDrops;
//   - packets buffered at a failed link's input port are evacuated to a
//     free VC of the same router's surviving input ports (non-escape
//     slots first, escape fallback, same discipline as allocation),
//     counted in Counters.FaultReroutes — or dropped when the router has
//     no free slot;
//   - every surviving packet's up*/down* phase is reset: the table's
//     up*/down* numbering changed wholesale, so the walk restarts (the
//     same rule DrainRotate applies per forced hop).
//
// Reconfigure must run between Steps. The caller recomputes the drain
// path separately (core.Controller.Reconfigure). The reconfig path
// performs no heap allocation — it runs mid-simulation and is a hotalloc
// root (see internal/lint); a new table builds each candidate kind at
// its first read, not here.
func (n *Network) Reconfigure(active *topology.Graph, tab *routing.Table) (ReconfigReport, error) {
	var rep ReconfigReport
	if tab == nil {
		return rep, errReconfigNilTable
	}
	if tab.Graph() != active {
		return rep, errReconfigWrongGraph
	}
	if active.N() != n.g.N() {
		return rep, errReconfigRouters
	}
	// New down set: a full-graph link is down iff absent from active.
	up := 0
	for i, l := range n.g.Links() {
		_, ok := active.LinkID(l.From, l.To)
		n.scrDown[i] = !ok
		if ok {
			up++
		}
		if !ok && !n.linkDown[i] {
			rep.LinksFailed++
		}
		if ok && n.linkDown[i] {
			rep.LinksRestored++
		}
	}
	if up != active.NumLinks() {
		return rep, errReconfigNotSubset
	}

	if rep.LinksFailed > 0 {
		// Cut transfers bound for newly failed links. Already-down links
		// cannot have flights (no grants target them), so dropping
		// against the whole new down set is equivalent.
		rep.Dropped += n.eng.removeFailedFlights(n, n.scrDown)
		// Evacuate stranded buffers, in ascending (link, slot) order —
		// shared Network code, so the order is engine-independent.
		for l := range n.scrDown {
			if !n.scrDown[l] || n.linkDown[l] {
				continue
			}
			n.linkBusy[l] = 0 // any transfer on the wire was cut above
			for s := 0; s < n.vcPerPort; s++ {
				slot := n.slot(l, s)
				p := slot.pkt
				if p == nil || slot.sending {
					// A sending occupant departs over a surviving link;
					// its slot frees at landing and is never refilled.
					continue
				}
				if n.evacuate(p, l, s) {
					rep.Rerouted++
				} else {
					n.dropWaiting(p.atRouter, l, s)
					n.Counters.FaultDrops++
					n.ReleasePacket(p)
					rep.Dropped++
				}
			}
		}
	}

	// The up*/down* numbering changed wholesale: restart every surviving
	// packet's phase under the new table. Pending flights carry the phase
	// computed at grant time as an arrival effect, so it is reset there
	// too (per-flight independent mutation — engine iteration order is
	// unobservable).
	n.eng.eachFlight(clearFlightDownPhase)
	// Every cached route was computed from the old table and phases too:
	// routed heads go back to pending, and the next visit routes them anew.
	for i := range n.vc {
		if slot := &n.vc[i]; slot.pkt != nil {
			slot.pkt.DownPhase = false
			if !slot.sending {
				n.rerouteAt[i] = slot.readyAt
			}
		}
	}
	for r := 0; r < n.g.N(); r++ {
		for w := 0; w < n.maskW; w++ {
			blk := n.sub(r, w)
			blk[mPend] |= blk[mReady]
			clear(blk[mReady:])
		}
	}

	n.tab = tab
	n.cfg.Table = tab
	copy(n.linkDown, n.scrDown)
	n.Counters.Reconfigs++
	return rep, nil
}

// clearFlightDownPhase resets the up*/down* arrival effect carried by a
// pending flight (a package-level function value, not a closure, so the
// alloc-free Reconfigure path allocates nothing to pass it).
func clearFlightDownPhase(f *flight) { f.downPhase = false }

// dropFlight applies the shared drop effects for a transfer cut by a
// link failure: the upstream slot frees (the packet departed), the
// downstream reservation clears, and the packet leaves the simulation.
// Effects of distinct drops commute, so engines may apply them in any
// internal flight order.
func (n *Network) dropFlight(f flight) {
	p := f.pkt
	n.freeUpstream(p)
	n.ports[f.toLink].free |= 1 << uint(f.toSlot)
	n.Counters.FaultDrops++
	n.ReleasePacket(p)
}

// evacuate moves the non-sending packet p out of failed-link slot
// (fromLink, fromSlot) into a free VC of the same router's surviving
// input ports, mirroring freeDownstreamSlot's discipline: an escape
// packet may only take escape (base) slots; others try non-escape slots
// across all ports first, then fall back to escape slots (entering the
// escape network, sticky unless NonStickyEscape). Ports ascend by link
// ID and slots ascend within each port, so the choice is deterministic.
// Reports false when no slot is free (the caller drops the packet).
func (n *Network) evacuate(p *Packet, fromLink, fromSlot int) bool {
	r := p.atRouter
	base := p.VNet * n.cfg.VCsPerVN
	find := func(lo, hi int) (int, int, bool) {
		for _, l := range n.inLinks[r] {
			if n.scrDown[l] {
				continue
			}
			if m := n.ports[l].free >> uint(lo) << uint(lo) & (1<<uint(hi) - 1); m != 0 {
				return l, bits.TrailingZeros64(m), true
			}
		}
		return 0, 0, false
	}
	var toLink, toSlot int
	var ok, escape bool
	switch {
	case n.cfg.PolicyEscape && p.InEscape:
		toLink, toSlot, ok = find(base, base+1)
	case n.cfg.PolicyEscape:
		if toLink, toSlot, ok = find(base+1, base+n.cfg.VCsPerVN); !ok {
			toLink, toSlot, ok = find(base, base+1)
			escape = ok
		}
	default:
		toLink, toSlot, ok = find(base, base+n.cfg.VCsPerVN)
	}
	if !ok {
		return false
	}
	readyAt := n.cycle + int64(n.cfg.RouterLatency)
	n.dropWaiting(r, fromLink, fromSlot)
	n.occupy(r, toLink, toSlot, p, readyAt)
	p.inLink = toLink
	p.slot = toSlot
	if escape && !n.cfg.NonStickyEscape {
		p.InEscape = true
	}
	n.Counters.FaultReroutes++
	n.eng.placed(n, r, readyAt)
	return true
}
