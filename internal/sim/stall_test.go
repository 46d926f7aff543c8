package sim

import (
	"testing"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/workload"
)

// TestVN1EndpointStall characterizes ROADMAP item 2: single-VN DRAIN
// deadlocks at an endpoint, where no drain reaches. It pins today's
// wrong behaviour — the run stalls short of its ops target and the state
// is the three-resource cycle ROADMAP's measurement box describes: one
// router's local-port VCs hold Requests its node sent to itself, which
// cannot eject into its full Request queue; the directory behind that
// queue waits on a full Response injection queue; and those Responses
// wait for a local-port VC. The wait-for analysis sees the deadlock but
// names no cycle, because it has no endpoint nodes. Item 2's fix must
// invert this test: the runs complete, and the assertions on the stalled
// state go.
func TestVN1EndpointStall(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         Params
		prof      string
		maxCycles int64
		completed int64 // ops completed when the run stalls
		router    int   // where the cycle sits
	}{
		// ROADMAP's measurement box.
		{"4x4 canneal", Params{Width: 4, Height: 4, InjectCap: 16, Seed: 10}, "canneal", 300_000, 31_937, 0},
		// The smallest stall found on 2x2 and 3x3 meshes over MSHRs
		// {1,2,4}, InjectCap {1,2,4,8}, EjectCap {1,2,4}, every profile and
		// seeds 1-200 (2 000 ops per core, 200 000 cycles): one miss per
		// core, two injection slots and one ejection slot per class. With
		// VNets: 3 the same run completes.
		{"2x2 radix", Params{Width: 2, Height: 2, MSHRs: 1, InjectCap: 2, EjectCap: 1, Seed: 3}, "radix", 200_000, 7_996, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.Scheme, p.Classes, p.Epoch = SchemeDRAIN, 3, 8192
			r, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunApp(workload.MustGet(tc.prof), 2000, tc.maxCycles)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed || res.Protocol.OpsCompleted != tc.completed {
				t.Fatalf("completed=%v with %d ops, want a stall at %d: the stall moved (item 2 fixed? invert this test)", res.Completed, res.Protocol.OpsCompleted, tc.completed)
			}
			net, cfg, at := r.Net, r.Net.Config(), tc.router
			for s := 0; s < cfg.VCsPerPort(); s++ {
				p := net.LocalOccupant(at, s)
				if p == nil || p.Class != coherence.ClassReq || p.Src != at || p.Dst != at {
					t.Errorf("router %d local VC %d holds %v, want a Request from node %d to itself", at, s, p, at)
				}
			}
			if got := net.EjectedLen(at, coherence.ClassReq); got != cfg.EjectCap {
				t.Errorf("node %d's Request ejection queue holds %d, want it full (%d)", at, got, cfg.EjectCap)
			}
			if got := net.InjQueueLen(at, coherence.ClassResp); got != cfg.InjectCap {
				t.Errorf("node %d's Response injection queue holds %d, want it full (%d)", at, got, cfg.InjectCap)
			}
			opts := noc.LivenessOpts{EjectLiveByClass: sinkClasses(cfg.Classes)}
			if !net.HasDeadlock(opts) {
				t.Error("HasDeadlock is false on the stalled state")
			}
			if cyc := net.FindBlockedCycle(opts); cyc != nil {
				t.Errorf("FindBlockedCycle names %v: the wait-for graph learned endpoint nodes (item 3a); update this test", cyc)
			}
		})
	}
}
