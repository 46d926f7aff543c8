package noc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"drain/internal/routing"
	"drain/internal/topology"
)

// sinkMask is a consumer whose class c's ejection always drains when
// m[c] is set; any other class's queued head is stopped on nothing, so a
// packet waiting to eject behind it is live only while the queue has
// room.
type sinkMask []bool

func (m sinkMask) HeadWait(_, class int) (int, func(*Packet) bool, bool) {
	return -1, nil, class >= len(m) || !m[class]
}

// refLiveness is the link-VC-only analysis the relation replaced, kept
// as the reference for its link-VC verdicts: a packet at its destination
// is live when its class sinks (sink nil: every class does) or its
// ejection queue has room, and has no edges.
func refLiveness(n *Network, sink []bool) (live []bool, targets [][]int) {
	total := n.g.NumLinks() * n.vcPerPort
	live, targets = make([]bool, total), make([][]int, total)
	for i := range total {
		slot := n.slot(i/n.vcPerPort, i%n.vcPerPort)
		router, p := n.g.Link(i/n.vcPerPort).To, slot.pkt
		switch {
		case p == nil || slot.sending:
			live[i] = true
		case p.Dst == router:
			live[i] = sink == nil || p.Class < len(sink) && sink[p.Class] || n.ejectSpace(router, p.Class)
		default:
			targets[i] = n.moveTargets(p, router, nil)
			live[i] = n.anyFree(targets[i])
		}
	}
	settle(live, targets)
	return live, targets
}

// refFindBlockedCycle is the reference's walk: from the first non-live
// link VC along first non-live targets until a VC repeats, nil at a
// packet with none.
func refFindBlockedCycle(n *Network, sink []bool) []VCRef {
	live, targets := refLiveness(n, sink)
	cur := slices.Index(live, false)
	if cur < 0 {
		return nil
	}
	pos := make([]int32, len(live))
	var walk []int
	for pos[cur] == 0 {
		walk = append(walk, cur)
		pos[cur] = int32(len(walk))
		next := slices.IndexFunc(targets[cur], func(t int) bool { return !live[t] })
		if next < 0 {
			return nil
		}
		cur = targets[cur][next]
	}
	var refs []VCRef
	for _, idx := range walk[pos[cur]-1:] {
		refs = append(refs, VCRef{Link: idx / n.vcPerPort, Slot: idx % n.vcPerPort})
	}
	return refs
}

// checkWaitForReference loads a random network and asserts that the
// relation decides every link VC as the reference does, with every
// ejection queue a sink (nil) and under a random sinkMask, and that
// HasDeadlock and FindBlockedCycle agree with it in the first. The
// network is a random graph of 4–13 routers or (bit 7 of nRaw) a 2–4 x
// 2–4 mesh with up to two links removed, 1–3 VNs of 1–3 VCs, strictly
// minimal or not, with an escape VC or not; each link VC holds a packet
// with probability (fill%8+1)/8, some routers inject one, a few cycles
// run without consuming, and some ejection queues are then filled. Same
// contract as checkConservation.
func checkWaitForReference(seed uint64, nRaw, fill uint8) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	g, err := topology.NewRandomConnected(int(nRaw%10)+4, 4, rng)
	if nRaw&0x80 != 0 {
		g, err = topology.RemoveRandomLinks(topology.MustMesh(int(nRaw%3)+2, int(nRaw/3%3)+2).Graph, rng.IntN(3), rng)
	}
	if err != nil {
		return errSkip
	}
	vnets := rng.IntN(3) + 1
	cfg := Config{
		Graph: g, VNets: vnets, VCsPerVN: rng.IntN(3) + 1, Classes: vnets,
		Routing:  routing.AdaptiveMinimal,
		EjectCap: rng.IntN(2) + 1,
		Seed:     seed,
	}
	if rng.IntN(2) == 0 {
		cfg.DerouteAfter = -1
	}
	if rng.IntN(2) == 0 {
		cfg.PolicyEscape, cfg.EscapeRouting = true, routing.AdaptiveMinimal
	}
	net, err := New(cfg)
	if err != nil {
		return errSkip
	}
	N := g.N()
	for _, l := range g.Links() {
		for s := range net.vcPerPort {
			if rng.IntN(8) <= int(fill%8) {
				if _, err := net.PlacePacket(l.From, l.To, rng.IntN(N), s); err != nil {
					return err
				}
			}
		}
	}
	for r := range N {
		if d := rng.IntN(N); d != r {
			net.Inject(net.NewPacket(r, d, rng.IntN(vnets), 1))
		}
	}
	for range rng.IntN(4) {
		net.Step()
	}
	for r := range N {
		for c := range vnets {
			for rng.IntN(2) == 0 && net.ejectSpace(r, c) {
				net.ejQ[r][c].Push(net.NewPacket(r, r, c, 1))
			}
		}
	}
	sink := make([]bool, vnets)
	for c := range sink {
		sink[c] = rng.IntN(2) == 0
	}
	for _, v := range []struct {
		c    Consumer
		sink []bool
	}{{nil, nil}, {sinkMask(sink), sink}} {
		live, _ := refLiveness(net, v.sink)
		if got := net.waitFor(v.c).live[:len(live)]; !slices.Equal(got, live) {
			return fmt.Errorf("sinks %v: link-VC verdicts %v, reference %v", v.sink, got, live)
		}
	}
	live, _ := refLiveness(net, nil)
	if got, want := net.HasDeadlock(), slices.Contains(live, false); got != want {
		return fmt.Errorf("HasDeadlock %v, reference %v", got, want)
	}
	if got, want := net.FindBlockedCycle(), refFindBlockedCycle(net, nil); !slices.Equal(got, want) {
		return fmt.Errorf("FindBlockedCycle %v, reference %v", got, want)
	}
	return nil
}

func TestWaitForMatchesLinkVCReference(t *testing.T) {
	f := func(seed uint64, nRaw, fill uint8) bool {
		err := checkWaitForReference(seed, nRaw, fill)
		if err != nil && !errors.Is(err, errSkip) {
			t.Logf("seed=%d nRaw=%d fill=%d: %v", seed, nRaw, fill, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: fixedRand()}); err != nil {
		t.Error(err)
	}
}
