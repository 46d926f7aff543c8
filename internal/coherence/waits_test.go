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

// TestWaitsNamesEachKind plants every wait kind on a 2x2 mesh, driving
// one consumer at a time, and checks that Waits names it: capacity of
// each class, a busy line awaiting Unblock and DirAck, MSHRs full and a
// miss already pending. A fresh system has no wait.
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
	check := func(t *testing.T, sys *System, r int, want ...Wait) {
		t.Helper()
		if got := sys.Waits(r); !reflect.DeepEqual(got, want) {
			t.Errorf("node %d waits %v, want %v", r, got, want)
		}
	}
	getS := func(c int) Msg { return Msg{Type: GetS, Addr: a, Requester: c} }

	t.Run("fresh", func(t *testing.T) {
		_, sys := build(t, 0)
		for r := range sys.nodes {
			check(t, sys, r)
		}
	})
	t.Run("capacity", func(t *testing.T) {
		n, sys := build(t, 0)
		// A read of an Invalid line needs a Response.
		deliver(t, n, sys, 0, home, getS(0))
		fill(n, home, ClassResp)
		sys.consumeRequests(home)
		check(t, sys, home, Wait{By: RequestHead, Kind: WaitCapacity, Class: ClassResp})
		if n.EjectedLen(home, ClassReq) != 1 || dirAt(sys, home, a).busy {
			t.Error("a refused Request was consumed or locked its line")
		}
		// Its Request injection queue full, the core cannot issue.
		fill(n, 0, ClassReq)
		sys.coreIssue(0)
		check(t, sys, 0, Wait{By: Issue, Kind: WaitCapacity, Class: ClassReq})
		// An invalidation needs a Response too.
		deliver(t, n, sys, home, 1, Msg{Type: Inv, Addr: a, Requester: 0})
		fill(n, 1, ClassResp)
		sys.consumeForwards(1)
		check(t, sys, 1, Wait{By: ForwardHead, Kind: WaitCapacity, Class: ClassResp})
		// A completed miss needs a Response for its Unblock.
		nd := sys.nodes[1]
		nd.mshrs.Put(a, &mshr{addr: a, gotData: true, completed: true})
		nd.unfinished++
		sys.retryCompletions(1)
		check(t, sys, 1,
			Wait{By: ForwardHead, Kind: WaitCapacity, Class: ClassResp},
			Wait{By: Fills, Kind: WaitCapacity, Class: ClassResp})
	})
	t.Run("forward capacity", func(t *testing.T) {
		n, sys := build(t, 0)
		// A read of a line another core owns needs a Forward.
		*sys.dirLine(home, a) = dirLine{state: Modified, owner: 1}
		deliver(t, n, sys, 0, home, getS(0))
		fill(n, home, ClassFwd)
		sys.consumeRequests(home)
		check(t, sys, home, Wait{By: RequestHead, Kind: WaitCapacity, Class: ClassFwd})
	})
	t.Run("busy line", func(t *testing.T) {
		n, sys := build(t, 0)
		deliver(t, n, sys, 0, home, getS(0))
		sys.consumeRequests(home)
		check(t, sys, home)
		deliver(t, n, sys, 3, home, getS(3))
		sys.consumeRequests(home)
		check(t, sys, home, Wait{By: RequestHead, Kind: WaitBusyLine, Addr: a, Awaits: Unblock, From: 0})
	})
	t.Run("busy line with DirAck", func(t *testing.T) {
		n, sys := build(t, 0)
		*sys.dirLine(home, a) = dirLine{state: Modified, owner: 1}
		deliver(t, n, sys, 0, home, getS(0))
		sys.consumeRequests(home) // FwdGetS to the owner, node 1
		deliver(t, n, sys, 3, home, getS(3))
		sys.consumeRequests(home)
		check(t, sys, home,
			Wait{By: RequestHead, Kind: WaitBusyLine, Addr: a, Awaits: Unblock, From: 0},
			Wait{By: RequestHead, Kind: WaitBusyLine, Addr: a, Awaits: DirAck, From: 1})
		// The Unblock can overtake the DirAck.
		deliver(t, n, sys, 0, home, Msg{Type: Unblock, Addr: a, Requester: 0})
		sys.consumeResponses(home)
		sys.consumeRequests(home)
		check(t, sys, home, Wait{By: RequestHead, Kind: WaitBusyLine, Addr: a, Awaits: DirAck, From: 1})
	})
	t.Run("MSHRs full", func(t *testing.T) {
		_, sys := build(t, 1)
		sys.nodes[0].mshrs.Put(a+4, &mshr{addr: a + 4})
		sys.coreIssue(0)
		check(t, sys, 0, Wait{By: Issue, Kind: WaitMSHRs})
	})
	t.Run("miss pending", func(t *testing.T) {
		_, sys := build(t, 0)
		sys.nodes[0].mshrs.Put(a, &mshr{addr: a})
		sys.coreIssue(0)
		check(t, sys, 0, Wait{By: Issue, Kind: WaitPending, Addr: a})
	})
}

// TestWaitsHasNoSideEffects runs the same contended system twice, once
// calling Waits at every node every cycle, and requires the two to end
// in the same state: RNG position, every queue, Stats, counters and the
// waits themselves.
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
		seen := map[WaitKind]int{}
		for i := 0; i < 3000; i++ {
			n.Step()
			sys.Tick()
			if probe {
				for r := range sys.nodes {
					for _, w := range sys.Waits(r) {
						seen[w.Kind]++
					}
				}
			}
		}
		if probe {
			t.Logf("waits seen by kind: %v", seen)
			if seen[WaitCapacity] == 0 || seen[WaitBusyLine] == 0 {
				t.Errorf("the run never waited on capacity and a busy line (%v): it compared too little", seen)
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
		if w0, w1 := s0.Waits(r), s1.Waits(r); !reflect.DeepEqual(w0, w1) {
			t.Errorf("node %d waits %v, probed run %v", r, w0, w1)
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
	want := []Wait{{By: RequestHead, Kind: WaitCapacity, Class: ClassFwd}}
	if got, invs := sys.Waits(home), sys.stats.MsgsByType[Inv]; !reflect.DeepEqual(got, want) || invs != 2 {
		t.Errorf("after the GetM: home waits %v with %d Invs sent; want %v with 2 (InjectCap)", got, invs, want)
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
