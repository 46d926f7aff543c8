package sim

import (
	"slices"
	"testing"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/workload"
)

// TestVN1EndpointStall pins the two kinds of endpoint stall single-VN
// DRAIN runs into today, each named through the protocol's waits
// (AppResult.Waits). It pins wrong behaviour: the runs stall short of
// their ops target, and the fix (parking busy-line requests by address
// plus NI loopback, ROADMAP B2) must invert this test.
//
//   - Local-port kind: one router's local-port VCs hold Requests its node
//     sent to itself, which cannot eject into its full Request queue; the
//     directory behind that queue waits on Response injection capacity;
//     and those Responses wait for a local-port VC.
//   - Head-of-line kind: a home's Request queue is full behind a head
//     whose line is busy, and the Unblock the line awaits bounces between
//     the home's neighbours on main VCs, so no drain ever moves it.
//
// The wait-for analysis sees both as non-live but names no cycle: it has
// no endpoint nodes.
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
			res, err := r.RunApp(workload.MustGet(tc.prof), tc.ops, tc.maxCycles)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed || res.Protocol.OpsCompleted != tc.completed {
				t.Fatalf("completed=%v with %d ops, want a stall at %d: the stall moved (fixed? invert this test)", res.Completed, res.Protocol.OpsCompleted, tc.completed)
			}
			net, cfg, at := r.Net, r.Net.Config(), tc.router
			if got := net.EjectedLen(at, coherence.ClassReq); got != cfg.EjectCap {
				t.Errorf("node %d's Request ejection queue holds %d, want it full (%d)", at, got, cfg.EjectCap)
			}
			if tc.headOfLine {
				checkHeadOfLine(t, r, res.Waits[at], at)
			} else {
				checkLocalPort(t, net, res.Waits[at], at)
			}
			opts := noc.LivenessOpts{EjectLiveByClass: sinkClasses(cfg.Classes)}
			if !net.HasDeadlock(opts) {
				t.Error("HasDeadlock is false on the stalled state")
			}
			if cyc := net.FindBlockedCycle(opts); cyc != nil {
				t.Errorf("FindBlockedCycle names %v: the wait-for graph learned endpoint nodes; update this test", cyc)
			}
		})
	}
}

// checkLocalPort asserts the local-port kind at router at: its local VCs
// hold self-addressed Requests, its Response injection queue is full,
// and its Request head waits on that queue's capacity.
func checkLocalPort(t *testing.T, net *noc.Network, waits []coherence.Wait, at int) {
	t.Helper()
	cfg := net.Config()
	for s := 0; s < cfg.VCsPerPort(); s++ {
		p := net.LocalOccupant(at, s)
		if p == nil || p.Class != coherence.ClassReq || p.Src != at || p.Dst != at {
			t.Errorf("router %d local VC %d holds %v, want a Request from node %d to itself", at, s, p, at)
		}
	}
	if got := net.InjQueueLen(at, coherence.ClassResp); got != cfg.InjectCap {
		t.Errorf("node %d's Response injection queue holds %d, want it full (%d)", at, got, cfg.InjectCap)
	}
	want := coherence.Wait{By: coherence.RequestHead, Kind: coherence.WaitCapacity, Class: coherence.ClassResp}
	if !slices.Contains(waits, want) {
		t.Errorf("node %d waits %v, want %v", at, waits, want)
	}
}

// minMisroutes is the floor on the stuck Unblock's misroutes: it has
// bounced between the home's neighbours for most of the run (16 611
// times at the pinned state).
const minMisroutes = 10_000

// checkHeadOfLine asserts the head-of-line kind at home at: its Request
// head waits on a busy line awaiting an Unblock, and that Unblock sits in
// a link VC, never moved by a drain, having misrouted more than
// minMisroutes times.
func checkHeadOfLine(t *testing.T, r *Runner, waits []coherence.Wait, at int) {
	t.Helper()
	i := slices.IndexFunc(waits, func(w coherence.Wait) bool {
		return w.By == coherence.RequestHead && w.Kind == coherence.WaitBusyLine && w.Awaits == coherence.Unblock
	})
	if i < 0 {
		t.Fatalf("node %d waits %v, want its Request head on a busy line awaiting Unblock", at, waits)
	}
	w, cfg := waits[i], r.Net.Config()
	for l := 0; l < r.Graph.NumLinks(); l++ {
		for s := 0; s < cfg.VCsPerPort(); s++ {
			p := r.Net.LinkOccupant(l, s)
			if p == nil {
				continue
			}
			if m := p.Payload.(*coherence.Msg); m.Type != coherence.Unblock || m.Addr != w.Addr || p.Src != w.From || p.Dst != at {
				continue
			}
			if p.DrainHops != 0 || p.Misroutes <= minMisroutes {
				t.Errorf("the awaited Unblock in link %d VC %d has %d drain hops and %d misroutes, want 0 and more than %d", l, s, p.DrainHops, p.Misroutes, minMisroutes)
			}
			return
		}
	}
	t.Errorf("no link VC holds the Unblock for line %d from node %d that node %d awaits", w.Addr, w.From, at)
}
