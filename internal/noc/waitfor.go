package noc

import "drain/internal/routing"

// Wait-for / liveness analysis over link VC buffers.
//
// A VC buffer is *live* when its packet can eventually move: it is empty,
// its packet is already departing, it can eject, or one of the buffers it
// is allowed to move into is free or live. The least fixpoint of this
// relation separates buffers that can make progress (given cooperative
// scheduling) from buffers caught in a resource deadlock: every allowed
// successor of a non-live buffer is occupied by another non-live packet.
//
// This is the oracle the simulator uses to *measure* deadlocks (paper
// Fig. 3), the detector SPIN's timeout probes resolve against, and the
// source of the blocked cycles that forced-movement recovery rotates.

// LivenessOpts configures the analysis.
type LivenessOpts struct {
	// EjectLiveByClass[c] treats ejection of class c as always eventually
	// possible (a protocol "sink" class, or synthetic traffic that is
	// always consumed). nil means every class's ejection is a live sink;
	// otherwise classes not listed live only if their queue currently has
	// space.
	EjectLiveByClass []bool
}

func (o LivenessOpts) ejectLive(n *Network, router, class int) bool {
	if o.EjectLiveByClass == nil {
		return true
	}
	if class < len(o.EjectLiveByClass) && o.EjectLiveByClass[class] {
		return true
	}
	return n.ejectSpace(router, class)
}

// HasDeadlock reports whether any link VC is non-live.
func (n *Network) HasDeadlock(opts LivenessOpts) bool {
	live, all := n.liveness(opts)
	for i := 0; i < all; i++ {
		if !live[i] {
			return true
		}
	}
	return false
}

// liveness computes the live bit for every link VC slot (flat index
// link*vcPerPort+slot) and returns the slice plus its length.
func (n *Network) liveness(opts LivenessOpts) ([]bool, int) {
	total := n.g.NumLinks() * n.vcPerPort
	live := make([]bool, total)
	// Forward move targets per slot; built once, reversed for propagation.
	targets := make([][]int, total)
	queue := make([]int, 0, total)
	markLive := func(i int) {
		if !live[i] {
			live[i] = true
			queue = append(queue, i)
		}
	}

	for l := 0; l < n.g.NumLinks(); l++ {
		router := n.g.Link(l).To
		for s := 0; s < n.vcPerPort; s++ {
			i := l*n.vcPerPort + s
			slot := n.slot(l, s)
			p := slot.pkt
			if p == nil || slot.sending {
				// Empty, reserved (an arriving packet is moving), or
				// departing: all count as making progress.
				markLive(i)
				continue
			}
			if p.Dst == router {
				if opts.ejectLive(n, router, p.Class) {
					markLive(i)
				}
				continue // eject is the only option at the destination
			}
			targets[i] = n.moveTargets(p, router, nil)
			for _, t := range targets[i] {
				if n.ports[t/n.vcPerPort].free>>uint(t%n.vcPerPort)&1 != 0 {
					markLive(i)
					break
				}
			}
		}
	}

	// Reverse adjacency: rev[t] = slots that may move into t.
	rev := make([][]int32, total)
	for i, ts := range targets {
		for _, t := range ts {
			rev[t] = append(rev[t], int32(i))
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range rev[t] {
			markLive(int(i))
		}
	}
	return live, total
}

// moveTargets lists the flat slot indices packet p (at router, in a link
// VC) is allowed to move into, ignoring transient busy state.
func (n *Network) moveTargets(p *Packet, router int, buf []int) []int {
	base := p.VNet * n.cfg.VCsPerVN
	appendFor := func(out int, escape bool) {
		if escape {
			buf = append(buf, out*n.vcPerPort+base)
			return
		}
		start := base
		if n.cfg.PolicyEscape {
			start = base + 1
		}
		for s := start; s < base+n.cfg.VCsPerVN; s++ {
			buf = append(buf, out*n.vcPerPort+s)
		}
	}
	// Eventual-move semantics: adaptive packets can deroute over any
	// output once stalled, so liveness must consider every output.
	// Productive outputs are listed first (two passes over AllOutputs):
	// FindBlockedCycle follows the first blocked target, so extracted
	// cycles track the packets' *desired* moves (as SPIN's probes do) and
	// forced rotations make real forward progress. The sets are the
	// routing table's shared read-only slices and are only iterated here.
	add := func(k routing.Kind, phase, escape bool) {
		if n.cfg.DerouteAfter > 0 && k == routing.AdaptiveMinimal {
			all := n.tab.AllOutputs(router, p.Dst)
			for _, productive := range [2]bool{true, false} {
				for _, c := range all {
					if c.Productive() == productive {
						appendFor(c.LinkID(), escape)
					}
				}
			}
			return
		}
		for _, c := range n.tab.Candidates(k, router, p.Dst, phase) {
			appendFor(c.LinkID(), escape)
		}
	}
	switch {
	case !n.cfg.PolicyEscape:
		add(n.cfg.Routing, p.DownPhase, false)
	case p.InEscape:
		add(n.cfg.EscapeRouting, p.DownPhase, true)
	default:
		add(n.cfg.Routing, p.DownPhase, false)
		add(n.cfg.EscapeRouting, false, true)
	}
	return buf
}

// FindBlockedCycle extracts one cycle of mutually blocked VC buffers from
// the current deadlock, or nil if the network is deadlock-free. The
// returned refs satisfy RotateBlockedCycle's preconditions: consecutive
// refs share a router, every ref is occupied, and each packet is allowed
// to move into its successor buffer.
func (n *Network) FindBlockedCycle(opts LivenessOpts) []VCRef {
	live, total := n.liveness(opts)
	start := -1
	for i := 0; i < total; i++ {
		if !live[i] {
			start = i
			break
		}
	}
	if start < 0 {
		return nil
	}
	// Walk non-live successors until a slot repeats.
	visited := make(map[int]int) // flat index -> position in walk
	var walk []int
	cur := start
	for {
		if pos, seen := visited[cur]; seen {
			cycle := walk[pos:]
			refs := make([]VCRef, len(cycle))
			for i, idx := range cycle {
				refs[i] = VCRef{Link: idx / n.vcPerPort, Slot: idx % n.vcPerPort}
			}
			return refs
		}
		visited[cur] = len(walk)
		walk = append(walk, cur)
		p := n.slot(cur/n.vcPerPort, cur%n.vcPerPort).pkt
		if p == nil {
			return nil // raced with movement; caller retries later
		}
		next := -1
		for _, t := range n.moveTargets(p, n.g.Link(cur/n.vcPerPort).To, nil) {
			if !live[t] {
				next = t
				break
			}
		}
		if next < 0 {
			// Dead end: the packet's only blocked option is ejection
			// (possible when eject queues are not treated as live).
			return nil
		}
		cur = next
	}
}
