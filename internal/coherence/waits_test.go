package coherence

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/topology"
)

// fixedGen reads one line every cycle.
type fixedGen struct{ addr int64 }

func (g fixedGen) Next(int, *rand.Rand) (int64, bool) { return g.addr, false }
func (fixedGen) IssueProb() float64                   { return 1 }

// TestWaitsNamesEachKind plants every stop on a 2x2 mesh, driving one
// consumer at a time. HeadWait names each head's: capacity of a class, or
// a busy line awaiting Unblock and DirAck from named nodes. A fill or an
// issue that cannot proceed leaves its state as it was: the fill stays
// completed and unfinished, the issue counts a blocked cycle and adds no
// op, MSHR or message. A fresh system has no stop.
func TestWaitsNamesEachKind(t *testing.T) {
	const home, a = 2, int64(2) // line a is homed at node 2
	build := func(t *testing.T, mshrs int) (*noc.Network, *System) {
		t.Helper()
		m := topology.MustMesh(2, 2)
		n := protoNet(t, m.Graph, m, 3, 1)
		sys, err := New(n, Config{Gen: fixedGen{a}, MSHRs: mshrs, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return n, sys
	}
	// deliver sends m from node from and steps the network alone (no
	// consumer runs) until m waits in node to's ejection queue.
	deliver := func(t *testing.T, n *noc.Network, sys *System, from, to int, m Msg) {
		t.Helper()
		class := m.Type.Class()
		before := n.EjectedLen(to, class)
		sys.send(from, to, m)
		for i := 0; n.EjectedLen(to, class) == before; i++ {
			if i == 100 {
				t.Fatalf("%v from %d never reached node %d", m, from, to)
			}
			n.Step()
		}
	}
	fill := func(n *noc.Network, r, class int) {
		for n.CanInject(r, class) {
			n.Inject(n.NewPacket(r, (r+1)%4, class, 1))
		}
	}
	// head checks HeadWait for node r's class head: inject is the class
	// it waits on, busy for a busy line, whose awaited responses to r are
	// want, or none.
	type awaited struct {
		t    MsgType
		from int
	}
	const none, busy = -2, -1
	head := func(t *testing.T, sys *System, r, class, inject int, want ...awaited) {
		t.Helper()
		got, awaits, stopped := sys.HeadWait(r, class)
		if !stopped {
			got = none
		}
		if got != inject || (awaits != nil) != (inject == busy) {
			t.Fatalf("node %d class %d head: HeadWait = (%d, awaits %t, %t), want inject %d", r, class, got, awaits != nil, stopped, inject)
		}
		if awaits == nil {
			return
		}
		var resp []awaited
		for _, mt := range []MsgType{Unblock, DirAck} {
			for from := range sys.nodes {
				if awaits(&noc.Packet{Src: from, Dst: r, Payload: &Msg{Type: mt, Addr: a}}) {
					resp = append(resp, awaited{mt, from})
				}
			}
		}
		data := awaits(&noc.Packet{Src: r, Dst: 0, Payload: &Msg{Type: Data, Addr: a}})
		if !reflect.DeepEqual(resp, want) || !data {
			t.Errorf("node %d awaits %v and the Data it sent %t, want %v and true", r, resp, data, want)
		}
	}
	// refused checks that core r cannot issue its next access.
	refused := func(t *testing.T, sys *System, r int) {
		t.Helper()
		nd := sys.nodes[r]
		blocked, issued, mshrs, sent := nd.blockedCyc, nd.opsIssued, nd.mshrs.Len(), sys.stats.MsgsSent
		sys.coreIssue(r)
		if nd.blockedCyc != blocked+1 || nd.opsIssued != issued || nd.mshrs.Len() != mshrs || sys.stats.MsgsSent != sent {
			t.Errorf("a refused issue: blocked cycles %d → %d, ops %d → %d, MSHRs %d → %d, messages %d → %d; want +1 and no change",
				blocked, nd.blockedCyc, issued, nd.opsIssued, mshrs, nd.mshrs.Len(), sent, sys.stats.MsgsSent)
		}
	}
	getS := func(c int) Msg { return Msg{Type: GetS, Addr: a, Requester: c} }

	t.Run("fresh", func(t *testing.T) {
		_, sys := build(t, 0)
		for r := range sys.nodes {
			for c := range NumClasses {
				head(t, sys, r, c, none)
			}
		}
	})
	t.Run("capacity", func(t *testing.T) {
		n, sys := build(t, 0)
		// A read of an Invalid line needs a Response.
		deliver(t, n, sys, 0, home, getS(0))
		fill(n, home, ClassResp)
		sys.consumeRequests(home)
		head(t, sys, home, ClassReq, ClassResp)
		if n.EjectedLen(home, ClassReq) != 1 || dirAt(sys, home, a).busy {
			t.Error("a refused Request was consumed or locked its line")
		}
		// Its Request injection queue full, the core cannot issue.
		fill(n, 0, ClassReq)
		refused(t, sys, 0)
		// An invalidation needs a Response too.
		deliver(t, n, sys, home, 1, Msg{Type: Inv, Addr: a, Requester: 0})
		fill(n, 1, ClassResp)
		sys.consumeForwards(1)
		head(t, sys, 1, ClassFwd, ClassResp)
		// A completed miss needs a Response for its Unblock; the Forward
		// head's stop stands.
		nd := sys.nodes[1]
		ms := &mshr{addr: a, gotData: true, completed: true}
		nd.mshrs.Put(a, ms)
		nd.unfinished++
		sys.retryCompletions(1)
		if got, ok := nd.mshrs.Get(a); !ok || got != ms || !ms.completed || nd.unfinished != 1 || nd.opsCompleted != 0 {
			t.Errorf("a refused fill: MSHR kept %t, completed %t, %d unfinished, %d ops completed; want true, true, 1, 0",
				ok && got == ms, ms.completed, nd.unfinished, nd.opsCompleted)
		}
		head(t, sys, 1, ClassFwd, ClassResp)
	})
	t.Run("forward capacity", func(t *testing.T) {
		n, sys := build(t, 0)
		// A read of a line another core owns needs a Forward.
		*sys.dirLine(home, a) = dirLine{state: Modified, owner: 1}
		deliver(t, n, sys, 0, home, getS(0))
		fill(n, home, ClassFwd)
		sys.consumeRequests(home)
		head(t, sys, home, ClassReq, ClassFwd)
	})
	t.Run("busy line", func(t *testing.T) {
		n, sys := build(t, 0)
		deliver(t, n, sys, 0, home, getS(0))
		sys.consumeRequests(home)
		head(t, sys, home, ClassReq, none)
		deliver(t, n, sys, 3, home, getS(3))
		sys.consumeRequests(home)
		head(t, sys, home, ClassReq, busy, awaited{Unblock, 0})
	})
	t.Run("busy line with DirAck", func(t *testing.T) {
		n, sys := build(t, 0)
		*sys.dirLine(home, a) = dirLine{state: Modified, owner: 1}
		deliver(t, n, sys, 0, home, getS(0))
		sys.consumeRequests(home) // FwdGetS to the owner, node 1
		deliver(t, n, sys, 3, home, getS(3))
		sys.consumeRequests(home)
		head(t, sys, home, ClassReq, busy, awaited{Unblock, 0}, awaited{DirAck, 1})
		// The Unblock can overtake the DirAck.
		deliver(t, n, sys, 0, home, Msg{Type: Unblock, Addr: a, Requester: 0})
		sys.consumeResponses(home)
		sys.consumeRequests(home)
		head(t, sys, home, ClassReq, busy, awaited{DirAck, 1})
	})
	t.Run("MSHRs full", func(t *testing.T) {
		_, sys := build(t, 1)
		sys.nodes[0].mshrs.Put(a+4, &mshr{addr: a + 4})
		refused(t, sys, 0)
	})
	t.Run("miss pending", func(t *testing.T) {
		_, sys := build(t, 0)
		sys.nodes[0].mshrs.Put(a, &mshr{addr: a})
		refused(t, sys, 0)
	})
}

// TestWaitsHasNoSideEffects runs the same contended system twice, once
// asking HeadWait about every head every cycle and calling each awaits
// on every packet a VC holds, and requires the two to end in the same
// state: RNG position, every queue, Stats, counters and the stops
// themselves.
func TestWaitsHasNoSideEffects(t *testing.T) {
	run := func(probe bool) (*noc.Network, *System) {
		m := topology.MustMesh(2, 2)
		n, err := noc.New(noc.Config{
			Graph: m.Graph, Mesh: m, VNets: 1, VCsPerVN: 2, Classes: NumClasses,
			PolicyEscape: true, Routing: routing.AdaptiveMinimal, EscapeRouting: routing.AdaptiveMinimal,
			InjectCap: 1, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(n, Config{
			Gen:   testGen{issue: 1.0, sharedFrac: 0.5, writeFrac: 0.5, shared: 8, private: 1 << 20},
			MSHRs: 2,
			Seed:  7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var capacity, busyLine int
		for i := 0; i < 3000; i++ {
			n.Step()
			sys.Tick()
			if !probe {
				continue
			}
			for r := range sys.nodes {
				for c := range NumClasses {
					inject, awaits, stopped := sys.HeadWait(r, c)
					switch {
					case !stopped:
					case inject >= 0:
						capacity++
					default:
						busyLine++
						eachBuffered(n, func(p *noc.Packet) { awaits(p) })
					}
				}
			}
		}
		if probe {
			t.Logf("heads stopped on capacity %d times, on a busy line %d times", capacity, busyLine)
			if capacity == 0 || busyLine == 0 {
				t.Errorf("the run never stopped on capacity and a busy line (%d, %d): it compared too little", capacity, busyLine)
			}
		}
		return n, sys
	}
	n0, s0 := run(false)
	n1, s1 := run(true)
	if s0.Stats() != s1.Stats() || !reflect.DeepEqual(n0.Counters, n1.Counters) || n0.InFlightPackets() != n1.InFlightPackets() {
		t.Fatalf("probed run diverged:\n  %+v %+v\n  %+v %+v", s0.Stats(), n0.Counters, s1.Stats(), n1.Counters)
	}
	for r := range s0.nodes {
		for c := 0; c < NumClasses; c++ {
			if n0.InjQueueLen(r, c) != n1.InjQueueLen(r, c) || n0.EjectedLen(r, c) != n1.EjectedLen(r, c) {
				t.Errorf("node %d class %d: queues differ", r, c)
			}
		}
		if w0, w1 := s0.nodes[r].stops, s1.nodes[r].stops; w0 != w1 {
			t.Errorf("node %d stops %v, probed run %v", r, w0, w1)
		}
	}
	if a, b := s0.rng.Uint64(), s1.rng.Uint64(); a != b {
		t.Errorf("RNG positions differ: next draws %d and %d", a, b)
	}
}

// TestGetMFanOutBeyondInjectCapIsBatched checks the invalidation batches
// (ROADMAP A12): a GetM on a line Shared by more other cores than
// InjectCap sends the Data and the Invs that fit, and the rest on later
// cycles; meanwhile the next Request waits, naming the Forward queue's
// capacity. Every Inv goes out, every InvAck is counted, the writer
// retires, and so does the Request that waited.
func TestGetMFanOutBeyondInjectCapIsBatched(t *testing.T) {
	m := topology.MustMesh(3, 3)
	n, err := noc.New(noc.Config{
		Graph: m.Graph, Mesh: m, VNets: 3, VCsPerVN: 2, Classes: NumClasses,
		PolicyEscape: true, Routing: routing.AdaptiveMinimal, EscapeRouting: routing.AdaptiveMinimal,
		InjectCap: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(n, Config{Gen: testGen{issue: 0, private: 4, shared: 4}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const a, b, home, writer, reader = 0, 9, 0, 4, 8 // lines 0 and 9 are homed at node 0
	for c := 1; c <= 3; c++ {
		read(t, n, sys, c, a)
	}
	if dl := dirAt(sys, home, a); dl.state != Shared {
		t.Fatalf("line %d is in directory state %d after three reads, want Shared", a, dl.state)
	}
	// The GetM, then a GetS behind it, reach the home's Request queue
	// before the home looks at it.
	for _, rq := range []struct {
		c    int
		addr int64
		t    MsgType
	}{{writer, a, GetM}, {reader, b, GetS}} {
		sys.nodes[rq.c].mshrs.Put(rq.addr, &mshr{addr: rq.addr, write: rq.t == GetM})
		sys.nodes[rq.c].opsIssued++
		queued := n.EjectedLen(home, ClassReq)
		sys.send(rq.c, home, Msg{Type: rq.t, Addr: rq.addr, Requester: rq.c})
		for i := 0; i < 100 && n.EjectedLen(home, ClassReq) == queued; i++ {
			n.Step()
		}
	}
	if got := n.EjectedLen(home, ClassReq); got != 2 {
		t.Fatalf("the home's Request queue holds %d, want the GetM and the GetS", got)
	}
	sys.Tick()
	if inject, _, stopped := sys.HeadWait(home, ClassReq); !stopped || inject != ClassFwd || sys.stats.MsgsByType[Inv] != 2 {
		t.Errorf("after the GetM: home's Request head waits on class %d (stopped %t) with %d Invs sent; want %d with 2 (InjectCap)",
			inject, stopped, sys.stats.MsgsByType[Inv], ClassFwd)
	}
	for i := 0; i < 1000 && (sys.nodes[writer].opsCompleted == 0 || sys.nodes[reader].opsCompleted == 0); i++ {
		n.Step()
		sys.Tick()
	}
	settle(t, n, sys)
	st := sys.Stats()
	if st.MsgsByType[Inv] != 3 || st.MsgsByType[InvAck] != 3 || sys.nodes[writer].opsCompleted != 1 || sys.nodes[reader].opsCompleted != 1 {
		t.Errorf("%d Invs and %d InvAcks sent, writer retired %d ops, reader %d: want 3, 3, 1 and 1",
			st.MsgsByType[Inv], st.MsgsByType[InvAck], sys.nodes[writer].opsCompleted, sys.nodes[reader].opsCompleted)
	}
	if dl := dirAt(sys, home, a); dl.busy || dl.state != Modified || dl.owner != writer || slices.ContainsFunc(dl.sharers, func(w uint64) bool { return w != 0 }) {
		t.Errorf("line %d's record is %+v, want it idle, Modified by %d, with no sharers", a, dl, writer)
	}
	if _, err := violation(lines(sys)); err != nil {
		t.Error(err)
	}
}
