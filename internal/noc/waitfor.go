package noc

import (
	"fmt"
	"math/bits"
	"slices"

	"drain/internal/routing"
)

// The wait-for relation answers every deadlock question: HasDeadlock
// (SchemeNone's stop rule, Fig. 3), FindBlockedCycle (the one recovery
// controller, SPIN's and the ideal baseline's) and ExplainStall (the
// stall watch). Its nodes are link VCs, local VCs, per-(router, class)
// injection and ejection queues, and awaited packets.
// A node is *live* when what it holds can eventually move: it is empty or
// departing, or a node it waits on is free or live. The least fixpoint
// separates buffers that can progress (given cooperative scheduling) from
// buffers caught in a deadlock, and a walk along non-live nodes names it.
// The deadlock verdicts are the network's: with every ejection queue a
// sink and live, a link VC waits only on link VCs (moveTargets) or a live
// queue, so HasDeadlock and FindBlockedCycle build no local VC. Only
// ExplainStall reads a protocol's head waits (Consumer).

// Consumer is the protocol engine consuming a network's ejection queues,
// as ExplainStall sees it (*coherence.System satisfies it from the one
// stop each Request and Forward head records per Tick). HeadWait
// reports whether the head of router r's class queue stopped in the last
// cycle, and on what: room in r's injection queue of class inject; or,
// when inject < 0, a packet awaits accepts (if in no VC or injection
// queue, assumed to come); or, when awaits is nil too, nothing: the head
// never moves. A nil Consumer makes every ejection queue a sink.
type Consumer interface {
	HeadWait(r, class int) (inject int, awaits func(*Packet) bool, stopped bool)
}

// relation is the wait-for relation decided: live and targets over its
// nodes, numbered VC slot i%V of port i/V below inj, the (router, class)
// injection queues from inj, the ejection queues from ej, and from aw the
// packet in VC i-aw as awaited (never live).
type relation struct {
	live        []bool
	targets     [][]int
	inj, ej, aw int
}

// waitFor builds the relation under consumer c and settles it.
func (n *Network) waitFor(c Consumer) relation {
	w := n.waitForLinks(c)
	w.addVCs(n, n.g.NumLinks()*n.vcPerPort, w.inj)
	return w
}

// waitForLinks builds and settles the relation under c but for its local
// VCs (non-live, waiting on nothing). Settling is monotone: what it finds
// live is live in the whole relation.
func (n *Network) waitForLinks(c Consumer) relation {
	V, C, N, L := n.vcPerPort, n.cfg.Classes, n.g.N(), n.g.NumLinks()
	w := relation{inj: (L + N) * V}
	w.ej, w.aw = w.inj+N*C, w.inj+2*N*C
	live, targets := make([]bool, w.aw+w.inj), make([][]int, w.aw+w.inj)
	w.live, w.targets = live, targets
	for q := range N * C {
		r, class := q/C, q%C
		if p := n.injQ[r][class].Peek(); p != nil {
			for s := range n.cfg.VCsPerVN {
				targets[w.inj+q] = append(targets[w.inj+q], (L+r)*V+p.VNet*n.cfg.VCsPerVN+s)
			}
		}
		live[w.inj+q] = targets[w.inj+q] == nil || n.anyFree(targets[w.inj+q])
		live[w.ej+q] = true
		if c == nil || n.ejQ[r][class].Len() == 0 {
			continue
		}
		inject, awaits, stopped := c.HeadWait(r, class)
		switch {
		case !stopped:
		case inject >= 0:
			targets[w.ej+q], live[w.ej+q] = []int{w.inj + r*C + inject}, false
		case awaits == nil: // a dead end
			live[w.ej+q] = false
		default:
			if t := n.awaitedAt(w, awaits); t >= 0 {
				targets[w.ej+q], live[w.ej+q] = []int{t}, false
			}
		}
	}
	w.addVCs(n, 0, L*V)
	return w
}

// awaitedAt returns the node holding the packet awaits accepts: the VC
// it is in as an awaited node, else the injection queue it waits in, at
// any position; or -1 when none holds it, and it is assumed to come.
func (n *Network) awaitedAt(w relation, awaits func(*Packet) bool) int {
	V, C := n.vcPerPort, n.cfg.Classes
	for i := range w.inj {
		if p := n.slot(i/V, i%V).pkt; p != nil && awaits(p) {
			return w.aw + i
		}
	}
	for q := range w.ej - w.inj {
		if slices.ContainsFunc(n.injQ[q/C][q%C].buf, func(p *Packet) bool { return p != nil && awaits(p) }) {
			return w.inj + q
		}
	}
	return -1
}

// addVCs decides VC nodes lo to hi-1 (slot i%V of port i/V) and settles
// w again.
func (w *relation) addVCs(n *Network, lo, hi int) {
	V, L := n.vcPerPort, n.g.NumLinks()
	var buf []int
	for i := lo; i < hi; i++ {
		port, slot := i/V, n.slot(i/V, i%V)
		router, p := port-L, slot.pkt
		if router < 0 {
			router = n.g.Link(port).To
		}
		switch {
		case p == nil || slot.sending:
			w.live[i] = true
		case p.Dst == router: // eject is the only option at the destination
			w.live[i], w.targets[i] = n.ejectSpace(router, p.Class), []int{w.ej + router*n.cfg.Classes + p.Class}
		default: // targets share one buffer: a grown one leaves earlier lists intact
			k := len(buf)
			if buf = n.moveTargets(p, router, buf); port >= L {
				buf = n.localTargets(p, buf, k)
			}
			w.targets[i] = buf[k:len(buf):len(buf)]
			w.live[i] = n.anyFree(w.targets[i])
		}
	}
	settle(w.live, w.targets)
}

// localTargets narrows buf[k:], the slots a local VC's packet p may move
// into, to what the injection admission lets it take. A slot on an output
// conservativeOK admits stays, as does the escape slot, which the bounded
// bypass (injectPatience) will open. On any other output the packet
// waits instead on the occupied slots whose freeing would admit it: the
// output's VN slots, or with one VC per VN the downstream router's VN
// input slots.
func (n *Network) localTargets(p *Packet, buf []int, k int) []int {
	V, per, vn := n.vcPerPort, n.cfg.VCsPerVN, p.VNet
	end := len(buf) // the narrowed list goes after end, then moves to k
	for _, t := range buf[k:end] {
		link := t / V
		if n.cfg.PolicyEscape && n.cfg.IsEscapeSlot(t%V) || n.conservativeOK(link, vn) {
			buf = append(buf, t)
			continue
		}
		ports := n.inLinks[n.g.Link(link).To]
		if per > 1 {
			ports = []int{link}
		}
		for _, l := range ports {
			for busy := ^n.freeInVN(l, vn) & n.vnMask; busy != 0; busy &= busy - 1 {
				buf = append(buf, l*V+vn*per+bits.TrailingZeros64(busy))
			}
		}
	}
	return append(buf[:k], buf[end:]...)
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
	rev := make([][]int32, len(live)) // rev[t]: the nodes not yet live that wait on t
	for i, ts := range targets {
		if live[i] {
			continue
		}
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
// mainVC slots, then esc into its escVC. The walk follows the first
// blocked target, so extracted cycles track the packets' *desired*
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

// walk follows, from node cur, each node's first non-live target until
// a node repeats, and returns the nodes in walk order with the index the
// repeat closes the loop at, or -1 where a node has no non-live target
// (a dead end).
func (w relation) walk(cur int) (nodes []int, loop int) {
	pos := make([]int32, len(w.live)) // a node's place in the walk, plus one
	for pos[cur] == 0 {
		nodes = append(nodes, cur)
		pos[cur] = int32(len(nodes))
		next := slices.IndexFunc(w.targets[cur], func(t int) bool { return !w.live[t] })
		if next < 0 {
			return nodes, -1
		}
		cur = w.targets[cur][next]
	}
	return nodes, int(pos[cur]) - 1
}

// HasDeadlock reports whether any link VC is non-live with every
// ejection queue a sink.
func (n *Network) HasDeadlock() bool { return n.FindBlockedCycle() != nil }

// FindBlockedCycle extracts one cycle of mutually blocked link VCs, with
// every ejection queue a sink, walking from the first non-live link VC,
// or returns nil if there is none. A non-live link VC's packet has moves
// (every packet off its destination does), all into occupied, non-live
// link VCs, so the walk always closes a cycle of link VCs. The returned
// refs satisfy RotateBlockedCycle's preconditions: consecutive refs share
// a router, every ref is occupied, and each packet is allowed to move
// into its successor buffer.
func (n *Network) FindBlockedCycle() []VCRef {
	w := n.waitForLinks(nil)
	cur := slices.Index(w.live[:n.g.NumLinks()*n.vcPerPort], false)
	if cur < 0 {
		return nil
	}
	nodes, loop := w.walk(cur)
	refs := make([]VCRef, len(nodes)-loop)
	for i, idx := range nodes[loop:] {
		refs[i] = VCRef{Link: idx / n.vcPerPort, Slot: idx % n.vcPerPort}
	}
	return refs
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

// ExplainStall walks the relation under c from the first blocked node,
// ejection queues first, to a blocked node each waits on. It changes no
// state.
func (n *Network) ExplainStall(c Consumer) Explanation {
	w := n.waitFor(c)
	pkt := func(i int) *Packet { return n.slot(i/n.vcPerPort, i%n.vcPerPort).pkt }
	x, oldest, most := Explanation{Loop: -1}, -1, -1
	for i := range w.inj {
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
	if oldest >= 0 {
		x.Oldest, x.MostHops = n.waitNode(oldest, w), n.waitNode(most, w)
	}
	cur := slices.Index(w.live[w.ej:w.aw], false) + w.ej
	if cur < w.ej {
		if cur = slices.Index(w.live[:w.aw], false); cur < 0 {
			return x
		}
	}
	nodes, loop := w.walk(cur)
	x.Loop = loop
	for _, i := range nodes {
		x.Nodes = append(x.Nodes, n.waitNode(i, w))
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

// waitNode names node i of relation r.
func (n *Network) waitNode(i int, r relation) WaitNode {
	V, C, L, inj, ej := n.vcPerPort, n.cfg.Classes, n.g.NumLinks(), r.inj, r.ej
	if i >= r.aw {
		w := n.waitNode(i-r.aw, r)
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
