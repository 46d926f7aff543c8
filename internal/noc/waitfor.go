package noc

import (
	"math/bits"
	"slices"

	"drain/internal/routing"
)

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
	live, _ := n.liveness(opts)
	return slices.Contains(live, false)
}

// liveness computes the live bit for every link VC slot (flat index
// link*vcPerPort+slot) and returns it with the edges it was decided over:
// targets[i] lists the slots the waiting packet in slot i may move into
// (moveTargets; none for an empty, departing or ejecting one).
func (n *Network) liveness(opts LivenessOpts) (live []bool, targets [][]int) {
	total := n.g.NumLinks() * n.vcPerPort
	live = make([]bool, total)
	targets = make([][]int, total)
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
	return live, targets
}

// moveTargets appends to buf the flat slot indices packet p, waiting in a
// link VC at router, may eventually move into: moves with every stall
// assumed (adaptive packets can deroute over any output once stalled),
// each list's productive outputs first, main expanded into the VN's
// mainVC slots, then esc into its escVC. FindBlockedCycle follows the
// first blocked target, so extracted cycles track the packets' *desired*
// moves (as SPIN's probes do) and forced rotations make real forward
// progress.
func (n *Network) moveTargets(p *Packet, router int, buf []int) []int {
	main, esc := n.moves(router, p.Dst, p, n.cfg.DerouteAfter > 0)
	base := p.VNet * n.cfg.VCsPerVN
	for _, path := range [2]struct {
		cands []routing.Candidate
		vcs   uint64
	}{{main, n.mainVC}, {esc, n.escVC}} {
		for _, productive := range [2]bool{true, false} {
			for _, c := range path.cands {
				for vcs := path.vcs; vcs != 0 && c.Productive() == productive; vcs &= vcs - 1 {
					buf = append(buf, c.LinkID()*n.vcPerPort+base+bits.TrailingZeros64(vcs))
				}
			}
		}
	}
	return buf
}

// FindBlockedCycle extracts one cycle of mutually blocked VC buffers from
// the current deadlock, or nil if the network is deadlock-free. The
// returned refs satisfy RotateBlockedCycle's preconditions: consecutive
// refs share a router, every ref is occupied, and each packet is allowed
// to move into its successor buffer.
func (n *Network) FindBlockedCycle(opts LivenessOpts) []VCRef {
	live, targets := n.liveness(opts)
	cur := slices.Index(live, false)
	if cur < 0 {
		return nil
	}
	// Walk non-live successors along liveness' edges until a slot
	// repeats; pos[i] is slot i's position in the walk, plus one.
	pos := make([]int32, len(live))
	var walk []int
	for pos[cur] == 0 {
		walk = append(walk, cur)
		pos[cur] = int32(len(walk))
		next := slices.IndexFunc(targets[cur], func(t int) bool { return !live[t] })
		if next < 0 {
			// Dead end: the packet's only blocked option is ejection
			// (possible when eject queues are not treated as live).
			return nil
		}
		cur = targets[cur][next]
	}
	cycle := walk[pos[cur]-1:]
	refs := make([]VCRef, len(cycle))
	for i, idx := range cycle {
		refs[i] = VCRef{Link: idx / n.vcPerPort, Slot: idx % n.vcPerPort}
	}
	return refs
}
