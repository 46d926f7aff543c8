package noc

import (
	"fmt"
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
// link*vcPerPort+slot) and returns it with the edges it was decided over
// (vcEdges; a packet at its destination has none).
func (n *Network) liveness(opts LivenessOpts) (live []bool, targets [][]int) {
	total := n.g.NumLinks() * n.vcPerPort
	live, targets = make([]bool, total), make([][]int, total)
	n.vcEdges(total, live, targets, func(router, class int) (bool, []int) {
		return opts.ejectLive(n, router, class), nil
	})
	settle(live, targets)
	return live, targets
}

// vcEdges decides the first k VC slots (flat index port*vcPerPort+slot):
// targets[i] lists the slots the waiting packet in slot i may move into
// (moveTargets), or what eject says for one at its destination. An empty,
// reserved (an arriving packet is moving) or departing slot is live, as
// is one with a free target.
func (n *Network) vcEdges(k int, live []bool, targets [][]int, eject func(router, class int) (bool, []int)) {
	for i := range k {
		port, slot := i/n.vcPerPort, n.slot(i/n.vcPerPort, i%n.vcPerPort)
		router, p := port-n.g.NumLinks(), slot.pkt
		if router < 0 {
			router = n.g.Link(port).To
		}
		switch {
		case p == nil || slot.sending:
			live[i] = true
		case p.Dst == router: // eject is the only option at the destination
			live[i], targets[i] = eject(router, p.Class)
		default:
			targets[i] = n.moveTargets(p, router, nil)
			live[i] = n.anyFree(targets[i])
		}
	}
}

// anyFree reports whether any of the flat slot indices is free.
func (n *Network) anyFree(slots []int) bool {
	return slices.ContainsFunc(slots, func(t int) bool {
		return n.ports[t/n.vcPerPort].free>>uint(t%n.vcPerPort)&1 != 0
	})
}

// settle completes the least fixpoint: live holds the nodes live by
// themselves, and every node with a live target becomes live.
func settle(live []bool, targets [][]int) {
	rev := make([][]int32, len(live)) // rev[t]: the nodes that wait on t
	for i, ts := range targets {
		for _, t := range ts {
			rev[t] = append(rev[t], int32(i))
		}
	}
	queue := make([]int, 0, len(live))
	for i, l := range live {
		if l {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, i := range rev[t] {
			if !live[i] {
				live[i] = true
				queue = append(queue, int(i))
			}
		}
	}
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

// Endpoint nodes. ExplainStall extends the relation past the link VCs to
// the network interface: a local VC waits like a link VC, an injection
// queue's head on a free local VC of its VN, and an ejection queue's head
// on what the Consumer above reports. With no consumer, every ejection
// queue is a sink.

// Consumer is the protocol engine consuming a network's ejection queues,
// as ExplainStall sees it (*coherence.System satisfies it). HeadWait
// reports whether the head of router r's class queue stopped in the last
// cycle, and on what: room in r's injection queue of class inject, or,
// when inject < 0, a packet awaits accepts (if in no VC, assumed to come).
type Consumer interface {
	HeadWait(r, class int) (inject int, awaits func(*Packet) bool, stopped bool)
}

// NodeKind names a node of the wait-for relation.
type NodeKind uint8

// Node kinds. An Awaited node is a packet an ejection queue's head awaits.
const (
	LinkVC NodeKind = iota + 1
	LocalVC
	InjQueue
	EjQueue
	Awaited
)

// WaitNode is one node of a stall: a VC at Router (Link is LocalPort for
// a local one) and its packet, a queue (Class, Len) and its head, or an
// awaited packet and the VC it is in. Packet is a copy, Payload rendered.
type WaitNode struct {
	Kind                           NodeKind
	Router, Link, Slot, Class, Len int
	Packet                         Packet
}

// String renders the node on one line.
func (w WaitNode) String() string {
	at, head, p := fmt.Sprintf("link %d VC %d", w.Link, w.Slot), "", w.Packet
	if w.Kind == InjQueue || w.Kind == EjQueue {
		at = fmt.Sprintf("%s queue of class %d", [...]string{"injection", "ejection"}[w.Kind-InjQueue], w.Class)
		head = fmt.Sprintf(" (%d queued), head", w.Len)
	} else if w.Link == LocalPort {
		at = fmt.Sprintf("local VC %d", w.Slot)
	}
	if w.Kind == Awaited {
		at = "awaited packet in " + at
	}
	what := ""
	if p.Payload != nil {
		what = fmt.Sprint(" ", p.Payload)
	}
	return fmt.Sprintf("%s at router %d%s: pkt%d[%d→%d c%d]%s created %d, %d hops, %d misroutes, %d drain hops",
		at, w.Router, head, p.ID, p.Src, p.Dst, p.Class, what, p.CreatedAt, p.Hops, p.Misroutes, p.DrainHops)
}

// StallKind classifies an Explanation.
type StallKind uint8

// Stall kinds.
const (
	NoStall        StallKind = iota // every node is live
	RoutingCycle                    // a cycle of link VCs: a routing deadlock
	LocalPortCycle                  // a cycle through a local VC and endpoint queues
	HeadOfLine                      // a queue head awaits a packet that does not come
	DeadEnd                         // a packet with no move
)

func (k StallKind) String() string {
	return [...]string{"none", "routing cycle", "local-port capacity cycle", "head of line", "dead end"}[k]
}

// Explanation is what ExplainStall names: a walk over blocked nodes, each
// waiting on the next, that closes on itself (Nodes[Loop:] is the cycle)
// or ends at an Awaited packet or a dead end (Loop < 0); and the VCs
// holding the oldest and the most-hopped packet (zero when none does).
type Explanation struct {
	Kind             StallKind
	Nodes            []WaitNode
	Loop             int
	Oldest, MostHops WaitNode
}

// ExplainStall decides liveness over every node, with c's head waits
// (nil: every ejection queue is a sink), and walks from the first blocked
// node, ejection queues first, to a blocked node each waits on. It
// changes no state.
func (n *Network) ExplainStall(c Consumer) Explanation {
	V, C, N, L := n.vcPerPort, n.cfg.Classes, n.g.N(), n.g.NumLinks()
	// Nodes: VC slot i%V of port i/V below inj, the injection queues from
	// inj, the ejection queues from ej, and from aw the packet in VC i-aw
	// as awaited (never live).
	inj := (L + N) * V
	ej, aw := inj+N*C, inj+2*N*C
	live, targets := make([]bool, aw+inj), make([][]int, aw+inj)
	pkt := func(i int) *Packet { return n.slot(i/V, i%V).pkt }
	n.vcEdges(inj, live, targets, func(router, class int) (bool, []int) {
		return n.ejectSpace(router, class), []int{ej + router*C + class}
	})
	oldest, most := -1, -1
	for i := range inj {
		p := pkt(i)
		if p == nil {
			continue
		}
		if oldest < 0 || p.CreatedAt < pkt(oldest).CreatedAt {
			oldest = i
		}
		if most < 0 || p.Hops > pkt(most).Hops {
			most = i
		}
	}
	for q := range N * C {
		r, class := q/C, q%C
		if p := n.injQ[r][class].Peek(); p != nil {
			for s := range n.cfg.VCsPerVN {
				targets[inj+q] = append(targets[inj+q], (L+r)*V+p.VNet*n.cfg.VCsPerVN+s)
			}
		}
		live[inj+q] = targets[inj+q] == nil || n.anyFree(targets[inj+q])
		live[ej+q] = true
		if c == nil || n.ejQ[r][class].Len() == 0 {
			continue
		}
		if inject, awaits, stopped := c.HeadWait(r, class); stopped && inject >= 0 {
			targets[ej+q], live[ej+q] = []int{inj + r*C + inject}, false
		} else if stopped {
			for i := range inj {
				if p := pkt(i); p != nil && awaits(p) {
					targets[ej+q], live[ej+q] = []int{aw + i}, false
					break
				}
			}
		}
	}
	settle(live, targets)

	x := Explanation{Loop: -1}
	if oldest >= 0 {
		x.Oldest, x.MostHops = n.waitNode(oldest, inj, ej), n.waitNode(most, inj, ej)
	}
	cur := slices.Index(live[ej:aw], false) + ej // ejection queues first
	if cur < ej {
		if cur = slices.Index(live[:aw], false); cur < 0 {
			return x
		}
	}
	pos := make([]int32, len(live)) // a node's place in the walk, plus one
	for pos[cur] == 0 {
		x.Nodes = append(x.Nodes, n.waitNode(cur, inj, ej))
		pos[cur] = int32(len(x.Nodes))
		next := slices.IndexFunc(targets[cur], func(t int) bool { return !live[t] })
		if next < 0 {
			break
		}
		if cur = targets[cur][next]; pos[cur] > 0 {
			x.Loop = int(pos[cur]) - 1
		}
	}
	switch last := x.Nodes[len(x.Nodes)-1].Kind; {
	case last == Awaited:
		x.Kind = HeadOfLine
	case x.Loop < 0:
		x.Kind = DeadEnd
	case slices.ContainsFunc(x.Nodes[x.Loop:], func(w WaitNode) bool { return w.Kind != LinkVC }):
		x.Kind = LocalPortCycle
	default:
		x.Kind = RoutingCycle
	}
	return x
}

// waitNode names ExplainStall's node i; inj and ej are where its
// injection and ejection queue nodes start.
func (n *Network) waitNode(i, inj, ej int) WaitNode {
	V, C, L := n.vcPerPort, n.cfg.Classes, n.g.NumLinks()
	if aw := 2*ej - inj; i >= aw {
		w := n.waitNode(i-aw, inj, ej)
		w.Kind = Awaited
		return w
	}
	var w WaitNode
	var p *Packet
	if i < inj {
		w = WaitNode{Kind: LinkVC, Link: i / V, Slot: i % V}
		if p = n.slot(i/V, i%V).pkt; w.Link < L {
			w.Router = n.g.Link(w.Link).To
		} else {
			w.Kind, w.Router, w.Link = LocalVC, w.Link-L, LocalPort
		}
	} else {
		q := n.injQ
		w.Kind = InjQueue
		if i >= ej {
			w.Kind, q, i = EjQueue, n.ejQ, i-(ej-inj)
		}
		w.Router, w.Class = (i-inj)/C, (i-inj)%C
		w.Len, p = q[w.Router][w.Class].Len(), q[w.Router][w.Class].Peek()
	}
	if p != nil {
		w.Packet = *p
		if p.Payload != nil {
			w.Packet.Payload = fmt.Sprint(p.Payload)
		}
	}
	return w
}
