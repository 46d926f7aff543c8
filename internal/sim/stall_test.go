package sim

import (
	"strings"
	"testing"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/workload"
)

// TestVN1EndpointStall pins the two kinds of endpoint stall single-VN
// DRAIN runs into today, each named by the run's Stall (ExplainStall at
// the run's end). It pins wrong behaviour: the runs stall short of their
// ops target, and the fix (parking busy-line requests by address plus NI
// loopback, ROADMAP B2) must invert this test.
//
//   - Local-port kind: one router's local-port VCs hold Requests its node
//     sent to itself, which cannot eject into its full Request queue; the
//     directory behind that queue waits on Response injection capacity;
//     and those Responses wait for a local-port VC.
//   - Head-of-line kind: a home's Request queue is full behind a head
//     whose line is busy, and the Unblock the line awaits bounces between
//     the home's neighbours on main VCs, so no drain ever moves it.
//
// The network is not deadlocked, its endpoints are: with every ejection
// queue a sink, as SPIN and SchemeNone decide, no link VC is non-live
// (HasDeadlock) and FindBlockedCycle names no cycle; ExplainStall walks
// on through the system's own head waits.
func TestVN1EndpointStall(t *testing.T) {
	for _, tc := range []struct {
		name           string
		p              Params
		prof           string
		ops, maxCycles int64
		completed      int64 // ops completed when the run stalls
		router         int   // where the stall sits
		headOfLine     bool  // the head-of-line kind, else the local-port kind
	}{
		// ROADMAP's measurement box.
		{"4x4 canneal", Params{Width: 4, Height: 4, InjectCap: 16, Seed: 10}, "canneal", 2000, 300_000, 31_937, 0, false},
		// The smallest stall found on 2x2 and 3x3 meshes over MSHRs
		// {1,2,4}, InjectCap {1,2,4,8}, EjectCap {1,2,4}, every profile and
		// seeds 1-200 (2 000 ops per core, 200 000 cycles): one miss per
		// core, two injection slots and one ejection slot per class. With
		// VNets: 3 the same run completes.
		{"2x2 radix", Params{Width: 2, Height: 2, MSHRs: 1, InjectCap: 2, EjectCap: 1, Seed: 3}, "radix", 2000, 200_000, 7_996, 3, false},
		// The smallest head-of-line stall on 2x2 meshes over MSHRs {1,2,4},
		// InjectCap {2,4,8,16}, EjectCap {1,2,4}, every profile and seeds
		// 1-200 (2 000 ops per core, 200 000 cycles): no run with one MSHR
		// ends with its awaited Unblock in a link VC; with two MSHRs,
		// InjectCap 2 and EjectCap 1, three do, and this is the lower seed
		// of the two whose Unblock never took a drain hop.
		{"2x2 radii", Params{Width: 2, Height: 2, MSHRs: 2, InjectCap: 2, EjectCap: 1, Seed: 89}, "radii", 2000, 200_000, 7_992, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.Scheme, p.Classes, p.Epoch = SchemeDRAIN, 3, 8192
			r, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			var stalls []int64 // the cycles of the stall events
			r.Probe = &Probe{OnEvent: func(e Event) bool {
				if e.Kind == EventStall {
					stalls = append(stalls, e.Cycle)
					if q, long := e.Stall.Quiet, e.Stall.Longest; q != 1 || long != quietChecks*watchEvery {
						t.Errorf("the stall event reports %d quiet windows, the longest %d cycles; want the first, %d cycles", q, long, quietChecks*watchEvery)
					}
				}
				return false
			}}
			res, err := r.RunApp(workload.MustGet(tc.prof), tc.ops, tc.maxCycles)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed || res.Protocol.OpsCompleted != tc.completed {
				t.Fatalf("completed=%v with %d ops, want a stall at %d: the stall moved (fixed? invert this test)", res.Completed, res.Protocol.OpsCompleted, tc.completed)
			}
			net, cfg, at, st := r.Net, r.Net.Config(), tc.router, res.Stall
			if st == nil || st.At != res.Runtime || len(st.Why.Nodes) < 2 {
				t.Fatalf("stall %+v: want one explained at the run's end, cycle %d", st, res.Runtime)
			}
			if len(stalls) != 1 || stalls[0] != st.Cycle || st.Deadlocked || st.Quiet == 0 || st.Longest < quietChecks*watchEvery || st.Cycle >= st.At {
				t.Errorf("stall events at %v for a stall recorded at %d with %d quiet windows, the longest %d cycles: want one event, at the first quiet window, before the run's end",
					stalls, st.Cycle, st.Quiet, st.Longest)
			}
			x := st.Why
			if head := x.Nodes[0]; head.Kind != noc.EjQueue || head.Router != at || head.Class != coherence.ClassReq || head.Len != cfg.EjectCap {
				t.Errorf("the stall starts at %v; want node %d's full Request ejection queue (%d)", head, at, cfg.EjectCap)
			}
			if tc.headOfLine {
				checkHeadOfLine(t, x, at)
			} else {
				checkLocalPort(t, net, x, at)
			}
			if net.HasDeadlock() {
				t.Error("HasDeadlock is true on the endpoint stall")
			}
			if cyc := net.FindBlockedCycle(); cyc != nil {
				t.Errorf("FindBlockedCycle names %v on the endpoint stall", cyc)
			}
		})
	}
}

// checkLocalPort asserts the local-port kind at router at: the stall is a
// cycle from its Request head to its full Response injection queue (the
// head waits on that queue's capacity) to a local VC holding a Request
// from node at to itself, back to the head; and every local VC at at
// holds such a Request.
func checkLocalPort(t *testing.T, net *noc.Network, x noc.Explanation, at int) {
	t.Helper()
	cfg := net.Config()
	if x.Kind != noc.LocalPortCycle || x.Loop != 0 || len(x.Nodes) != 3 {
		t.Fatalf("stall %v with loop %d over %v; want a local-port capacity cycle of three nodes", x.Kind, x.Loop, x.Nodes)
	}
	if q := x.Nodes[1]; q.Kind != noc.InjQueue || q.Router != at || q.Class != coherence.ClassResp || q.Len != cfg.InjectCap {
		t.Errorf("the Request head waits on %v; want node %d's full Response injection queue (%d)", q, at, cfg.InjectCap)
	}
	if vc, p := x.Nodes[2], x.Nodes[2].Packet; vc.Kind != noc.LocalVC || vc.Router != at || p.Class != coherence.ClassReq || p.Src != at || p.Dst != at {
		t.Errorf("the Response queue waits on %v; want a local VC at %d holding a Request from node %d to itself", vc, at, at)
	}
	for s := 0; s < cfg.VCsPerPort(); s++ {
		p := net.LocalOccupant(at, s)
		if p == nil || p.Class != coherence.ClassReq || p.Src != at || p.Dst != at {
			t.Errorf("router %d local VC %d holds %v, want a Request from node %d to itself", at, s, p, at)
		}
	}
}

// minMisroutes is the floor on the stuck Unblock's misroutes: it has
// bounced between the home's neighbours for most of the run (16 611
// times at the pinned state).
const minMisroutes = 10_000

// checkHeadOfLine asserts the head-of-line kind at home at: its Request
// head's line is busy, and the Unblock for that line the head awaits
// sits in a link VC, never moved by a drain, having misrouted more than
// minMisroutes times.
func checkHeadOfLine(t *testing.T, x noc.Explanation, at int) {
	t.Helper()
	if x.Kind != noc.HeadOfLine || len(x.Nodes) != 2 {
		t.Fatalf("stall %v over %v; want a head-of-line stall of two nodes", x.Kind, x.Nodes)
	}
	addr := func(p noc.Packet) string { // the line of a payload rendered "Type@addr(...)"
		_, a, _ := strings.Cut(p.Payload.(string), "@")
		a, _, _ = strings.Cut(a, "(")
		return a
	}
	head, w := x.Nodes[0].Packet, x.Nodes[1]
	p := w.Packet
	if w.Kind != noc.Awaited || w.Link < 0 || !strings.HasPrefix(p.Payload.(string), "Unblock@") || addr(p) != addr(head) || p.Dst != at {
		t.Fatalf("node %d's Request head %v awaits %v; want the Unblock for its line, in a link VC", at, head, w)
	}
	if p.DrainHops != 0 || p.Misroutes <= minMisroutes {
		t.Errorf("the awaited Unblock has %d drain hops and %d misroutes, want 0 and more than %d", p.DrainHops, p.Misroutes, minMisroutes)
	}
}

// TestSchemeNoneDeadlockIsExplained: the quick fig3 cell blackscholes,
// 2 links removed, run 0 used to deadlock on the leaf-injection block (a
// local VC's head the injection admission never let into a router of
// degree 1, named a dead end). The admission now lets it in, and the run
// records no stall. canneal with no link removed still deadlocks there:
// a home's Request head awaits the response to a Data it sent, and that
// Data waits in its Response injection queue behind a routing cycle of
// Response VCs.
func TestSchemeNoneDeadlockIsExplained(t *testing.T) {
	for _, c := range []struct {
		prof   string
		faults int
		want   noc.StallKind
	}{{"blackscholes", 2, noc.NoStall}, {"canneal", 0, noc.RoutingCycle}} {
		_, res, err := runFig3Cell(SchemeNone, 3, c.prof, c.faults, 25_000)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stall
		if c.want == noc.NoStall {
			if st != nil {
				t.Errorf("%s, %d links removed: stall %+v, want none", c.prof, c.faults, st)
			}
			continue
		}
		if st == nil || !st.Deadlocked || st.Why.Kind != c.want {
			t.Errorf("%s, %d links removed: stall %+v, want the confirmed deadlock fig3 counts, a %v", c.prof, c.faults, st, c.want)
		}
	}
}

// runFig3Cell runs run 0 of a quick fig3 cell (4x4, fault seed 1, seed 1,
// one VC per VN, strictly minimal) under scheme with vnets virtual
// networks.
func runFig3Cell(scheme Scheme, vnets int, prof string, faults int, maxCycles int64) (*Runner, AppResult, error) {
	return runFig3CellProbed(scheme, vnets, prof, faults, maxCycles, nil)
}

// runFig3CellProbed is runFig3Cell with probe watching the run.
func runFig3CellProbed(scheme Scheme, vnets int, prof string, faults int, maxCycles int64, probe *Probe) (*Runner, AppResult, error) {
	r, err := Build(Params{
		Width: 4, Height: 4, Faults: faults, FaultSeed: 1,
		Scheme: scheme, Classes: 3, VNets: vnets, VCsPerVN: 1,
		InjectCap: 16, MSHRs: 8, DerouteAfter: -1, Seed: 1,
	})
	if err != nil {
		return nil, AppResult{}, err
	}
	r.Probe = probe
	res, err := r.RunApp(workload.MustGet(prof), 0, maxCycles)
	return r, res, err
}

// TestSpinDetectsRoutingCycle: in the quick fig3 cell canneal, 2 links
// removed, run 0, under SPIN, a routing cycle of link VCs forms while
// some packet at its destination waits on a full Request ejection queue.
// SPIN decides with every ejection queue a sink, so it detects and spins
// the cycle and the run records no stall. (While it decided under a view
// in which no Request head moved, its walk dead-ended at that queue: no
// detection in 56 checks, and 7 quiet windows.)
func TestSpinDetectsRoutingCycle(t *testing.T) {
	r, res, err := runFig3Cell(SchemeSPIN, 3, "canneal", 2, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Spin.Stats(); st.Detections == 0 || res.Stall != nil {
		t.Errorf("SPIN %+v, stall %+v; want a detection and no stall", st, res.Stall)
	}
}

// TestIdealRecoveriesAreReported: in the quick fig3 cell canneal, 2
// links removed, run 0, the ideal baseline spins routing cycles, and
// every reader of SPIN's recoveries sees them: the run's Spins, the
// controller's count and the probe's spin events agree.
func TestIdealRecoveriesAreReported(t *testing.T) {
	var events int64
	probe := &Probe{OnEvent: func(e Event) bool {
		if e.Kind == EventSpin {
			events++
		}
		return false
	}}
	r, res, err := runFig3CellProbed(SchemeIdeal, 3, "canneal", 2, 60_000, probe)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Spin.Stats().Spins; n == 0 || res.Spins != n || events != n {
		t.Errorf("the run reports %d spins, the controller %d, the probe %d spin events; want the same, above 0", res.Spins, n, events)
	}
}

// TestStallWatchSeesWedgedNetworkBehindL1Hits: the quick fig3 cell
// canneal, no link removed, run 0, under SPIN with one virtual network,
// never stops — SPIN rotates blocked link cycles, and the Request heads
// wait through local ports — while the cores go on retiring the ops that
// hit in their L1s. Progress is an ejection, so the watch still records
// the stall, and at the run's end names the local-port capacity cycle.
func TestStallWatchSeesWedgedNetworkBehindL1Hits(t *testing.T) {
	_, res, err := runFig3Cell(SchemeSPIN, 1, "canneal", 0, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stall
	if st == nil || st.Deadlocked || st.Quiet == 0 || st.At != res.Runtime || res.Protocol.OpsCompleted == 0 {
		t.Fatalf("stall %+v after %d ops: want quiet windows while ops retire, explained at the run's end (cycle %d)", st, res.Protocol.OpsCompleted, res.Runtime)
	}
	if x := st.Why; x.Kind != noc.LocalPortCycle {
		t.Errorf("the stall is explained as %v over %v; want a local-port capacity cycle", x.Kind, x.Nodes)
	}
}

// TestExplainStallFollowsAwaitedIntoInjectionQueue: the quick fig3 cell
// fluidanimate, no link removed, run 0, under SPIN with one virtual
// network stalls with Request heads awaiting responses that sit in
// Response injection queues, or that answer forwards still in the home's
// own injection queue. The explainer follows them there and names the
// stall, where it once assumed they would come and named none.
func TestExplainStallFollowsAwaitedIntoInjectionQueue(t *testing.T) {
	_, res, err := runFig3Cell(SchemeSPIN, 1, "fluidanimate", 0, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stall; st == nil || st.Why.Kind != noc.LocalPortCycle {
		t.Errorf("stall %+v; want one explained as a local-port capacity cycle", st)
	}
}

// TestStallWatchIgnoresEmptyNetwork: cores that only load lines their
// L1s were prewarmed with send nothing, so nothing is ejected for the
// whole run; an empty network is not stalled, and no stall is recorded.
func TestStallWatchIgnoresEmptyNetwork(t *testing.T) {
	r, err := Build(Params{Width: 2, Height: 2, Scheme: SchemeDRAIN, Classes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hits := workload.Profile{Name: "l1-hits", Suite: "test", Issue: 0.5, PrivateLines: 8, SharedLines: 1}
	res, err := r.RunApp(hits, 0, 4*quietChecks*watchEvery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Injected != 0 || res.Protocol.OpsCompleted == 0 {
		t.Fatalf("%d packets injected, %d ops retired; want L1 hits alone", res.Counters.Injected, res.Protocol.OpsCompleted)
	}
	if res.Stall != nil {
		t.Errorf("stall %+v recorded over an empty network", res.Stall)
	}
}
