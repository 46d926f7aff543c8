package sim

import (
	"reflect"
	"strings"
	"testing"

	"drain/internal/topology"
	"drain/internal/traffic"
)

// FuzzParseFaultSchedule feeds raw strings to the -fault-schedule /
// fault_schedule syntax. Nothing may panic, and what is accepted must
// come back event for event from its own String() join.
func FuzzParseFaultSchedule(f *testing.F) {
	for _, s := range []string{"", " 1000:fail:2-3, 3000:recover:2-3 ", "x", "10:fail", "10:explode:2-3",
		"ten:fail:2-3", "10:fail:2", "10:fail:a-b", "-5:recover:-1--2", "9223372036854775808:fail:0-1", "1:fail:0-1,,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sched, err := ParseFaultSchedule(s)
		if err != nil {
			return
		}
		items := make([]string, len(sched))
		for i, ev := range sched {
			items[i] = ev.String()
		}
		if back, err := ParseFaultSchedule(strings.Join(items, ",")); err != nil || !reflect.DeepEqual(back, sched) {
			t.Fatalf("%q parsed to %+v, which re-parses to %+v (err %v)", s, sched, back, err)
		}
	})
}

// FuzzValidateFaultSchedule decodes a schedule over a 3×3 or 4×4 mesh —
// byte 0 picks the mesh and the scheme, then three bytes per event: cycle
// advance, mesh link, fail or recover — with cycles up to 2 000. Whatever
// ValidateFaultSchedule accepts must be runnable: BuildOn takes it, a run
// to one cycle past the last event returns no error, has applied one
// reconfiguration per distinct event cycle (so no state a replay reaches
// is disconnected or names a missing link) and leaves the network's
// invariants intact.
func FuzzValidateFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 3, 1, 50, 3, 0})           // fail, then recover, one link
	f.Add([]byte{1, 100, 0, 1, 0, 7, 1, 0, 9, 1})  // three failures in one cycle
	f.Add([]byte{2, 5, 0, 1, 5, 1, 1})             // 3×3 corner cut off: must be refused
	f.Add([]byte{3, 255, 4, 1, 255, 4, 1})         // fail a link that is down
	f.Add([]byte{0, 0, 1, 1, 0, 1, 0, 200, 11, 1}) // one link twice in one cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		side := 3 + int(data[0]&1)
		p := Params{Width: side, Height: side, Scheme: SchemeDRAIN, Epoch: 128, Seed: 1}
		if data[0]&2 != 0 {
			p.Scheme = SchemeEscapeVC
		}
		mesh := topology.MustMesh(side, side)
		edges := mesh.Graph.Edges()
		var cycle int64
		distinct := int64(0)
		for d := data[1:]; len(d) >= 3 && cycle+int64(d[0]) <= 2000; d = d[3:] {
			if d[0] > 0 || len(p.FaultSchedule) == 0 {
				distinct++
			}
			cycle += int64(d[0])
			e := edges[int(d[1])%len(edges)]
			p.FaultSchedule = append(p.FaultSchedule, FaultEvent{Cycle: cycle, A: e.A, B: e.B, Fail: d[2]&1 == 1})
		}
		if len(p.FaultSchedule) == 0 || ValidateFaultSchedule(mesh.Graph, p.FaultSchedule) != nil {
			return
		}
		r, err := BuildOn(mesh.Graph, mesh, p)
		if err != nil {
			t.Fatalf("validated schedule %v does not build: %v", p.FaultSchedule, err)
		}
		if _, err := r.RunSynthetic(traffic.UniformRandom{N: side * side}, 0.05, 0, cycle+1); err != nil {
			t.Fatalf("validated schedule %v fails its run: %v", p.FaultSchedule, err)
		}
		if got := r.Net.Counters.Reconfigs; got != distinct {
			t.Fatalf("schedule %v: %d reconfigurations, want one per distinct event cycle = %d", p.FaultSchedule, got, distinct)
		}
		if err := r.Net.CheckInvariants(); err != nil {
			t.Fatalf("schedule %v: %v", p.FaultSchedule, err)
		}
	})
}
