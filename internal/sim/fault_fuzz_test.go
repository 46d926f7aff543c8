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

// fuzzSchedule decodes a fuzz input into a mesh, a scheme and a schedule:
// byte 0 picks a 3×3 or 4×4 mesh and the scheme, then four bytes per
// event — cycle advance, x, y, flags — with cycles up to 2 000. Flag bit
// 0 is fail (else recover). With bit 1 clear the event names mesh link x
// (bit 2 swaps its endpoints); with it set it names the router pair
// (x, y), each reduced to [-1, routers], so non-edges, self-loops and
// out-of-range routers all occur. distinct counts the event cycles.
func fuzzSchedule(data []byte) (mesh *topology.Mesh, p Params, distinct int64) {
	side := 3 + int(data[0]&1)
	p = Params{Width: side, Height: side, Scheme: SchemeDRAIN, Epoch: 128, Seed: 1}
	if data[0]&2 != 0 {
		p.Scheme = SchemeEscapeVC
	}
	mesh = topology.MustMesh(side, side)
	edges := mesh.Graph.Edges()
	var cycle int64
	for d := data[1:]; len(d) >= 4 && cycle+int64(d[0]) <= 2000; d = d[4:] {
		if d[0] > 0 || len(p.FaultSchedule) == 0 {
			distinct++
		}
		cycle += int64(d[0])
		ev := FaultEvent{Cycle: cycle, Fail: d[3]&1 == 1}
		if d[3]&2 != 0 {
			ev.A, ev.B = int(d[1])%(side*side+2)-1, int(d[2])%(side*side+2)-1
		} else {
			e := edges[int(d[1])%len(edges)]
			ev.A, ev.B = e.A, e.B
			if d[3]&4 != 0 {
				ev.A, ev.B = e.B, e.A
			}
		}
		p.FaultSchedule = append(p.FaultSchedule, ev)
	}
	return mesh, p, distinct
}

// fuzzScheduleSeeds are FuzzValidateFaultSchedule's seed inputs (also
// the corpus the reference-validator comparison replays).
var fuzzScheduleSeeds = [][]byte{
	{0, 10, 3, 0, 1, 50, 3, 0, 4},                       // fail, then recover (endpoints swapped), one link
	{1, 100, 0, 0, 1, 0, 7, 0, 1, 0, 9, 0, 1},           // three failures in one cycle
	{2, 5, 0, 0, 1, 5, 1, 0, 1},                         // 3×3 corner cut off: must be refused
	{3, 255, 4, 0, 1, 255, 4, 0, 1},                     // fail a link that is down
	{0, 0, 1, 0, 1, 0, 1, 0, 0, 200, 11, 0, 1},          // one link twice in one cycle
	{1, 100, 1, 6, 2},                                   // 4×4, recover 0-5: a link the mesh never had
	{1, 100, 1, 6, 3},                                   // fail it instead
	{0, 7, 4, 4, 2, 7, 0, 3, 2, 7, 3, 10, 3},            // self-loop, router -1, router 9 of 9
	{1, 10, 2, 0, 1, 10, 2, 3, 3, 10, 2, 0, 0},          // one link failed by index, then again by router pair
	{1, 1, 5, 0, 1, 1, 9, 0, 1, 1, 5, 0, 0, 1, 5, 0, 1}, // two down at once, one back, down again
}

// FuzzValidateFaultSchedule decodes a schedule over a 3×3 or 4×4 mesh
// (fuzzSchedule). Whatever ValidateFaultSchedule accepts must be
// runnable: BuildOn takes it, a run to one cycle past the last event
// returns no error, has applied one reconfiguration per distinct event
// cycle (so no state a replay reaches is disconnected or names a missing
// link) and leaves the network's invariants intact.
func FuzzValidateFaultSchedule(f *testing.F) {
	for _, seed := range fuzzScheduleSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mesh, p, distinct := fuzzSchedule(data)
		if len(p.FaultSchedule) == 0 || ValidateFaultSchedule(mesh.Graph, p.FaultSchedule) != nil {
			return
		}
		r, err := BuildOn(mesh.Graph, mesh, p)
		if err != nil {
			t.Fatalf("validated schedule %v does not build: %v", p.FaultSchedule, err)
		}
		last := p.FaultSchedule[len(p.FaultSchedule)-1].Cycle
		if _, err := r.RunSynthetic(traffic.UniformRandom{N: mesh.N()}, 0.05, 0, last+1); err != nil {
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
