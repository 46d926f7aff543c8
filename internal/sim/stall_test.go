package sim

import (
	"testing"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/workload"
)

// TestVN1EndpointStall characterizes ROADMAP item 1: single-VN DRAIN
// deadlocks at an endpoint, where no drain reaches. It pins today's
// wrong behaviour — the run stalls short of its ops target and the state
// is the three-resource cycle ROADMAP's measurement box describes: router
// 0's local-port VCs hold Requests node 0 sent to itself, which cannot
// eject into its full Request queue; the directory behind that queue
// waits on a full Response injection queue; and those Responses wait for
// a local-port VC. The wait-for analysis sees the deadlock but names no
// cycle, because it has no endpoint nodes. Item 1's fix must invert this
// test: the run completes, and the assertions on the stalled state go.
func TestVN1EndpointStall(t *testing.T) {
	r, err := Build(Params{
		Width: 4, Height: 4, Scheme: SchemeDRAIN, Classes: 3,
		InjectCap: 16, Epoch: 8192, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunApp(workload.MustGet("canneal"), 2000, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Protocol.OpsCompleted != 31_937 {
		t.Fatalf("completed=%v with %d of 32000 ops: the stall moved (item 1 fixed? invert this test)", res.Completed, res.Protocol.OpsCompleted)
	}
	net, cfg := r.Net, r.Net.Config()
	for s := 0; s < cfg.VCsPerPort(); s++ {
		p := net.LocalOccupant(0, s)
		if p == nil || p.Class != coherence.ClassReq || p.Src != 0 || p.Dst != 0 {
			t.Errorf("router 0 local VC %d holds %v, want a Request from node 0 to itself", s, p)
		}
	}
	if got := net.EjectedLen(0, coherence.ClassReq); got != cfg.EjectCap {
		t.Errorf("node 0's Request ejection queue holds %d, want it full (%d)", got, cfg.EjectCap)
	}
	if got := net.InjQueueLen(0, coherence.ClassResp); got != cfg.InjectCap {
		t.Errorf("node 0's Response injection queue holds %d, want it full (%d)", got, cfg.InjectCap)
	}
	opts := noc.LivenessOpts{EjectLiveByClass: sinkClasses(cfg.Classes)}
	if !net.HasDeadlock(opts) {
		t.Error("HasDeadlock is false on the stalled state")
	}
	if cyc := net.FindBlockedCycle(opts); cyc != nil {
		t.Errorf("FindBlockedCycle names %v: the wait-for graph learned endpoint nodes (item 2a); update this test", cyc)
	}
}
