package sim

import (
	"reflect"
	"strings"
	"testing"

	"drain/internal/noc"
	"drain/internal/topology"
	"drain/internal/traffic"
)

func TestParseFaultSchedule(t *testing.T) {
	got, err := ParseFaultSchedule(" 1000:fail:2-3, 3000:recover:2-3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Cycle: 1000, A: 2, B: 3, Fail: true},
		{Cycle: 3000, A: 2, B: 3, Fail: false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for _, ev := range got {
		back, err := ParseFaultSchedule(ev.String())
		if err != nil || len(back) != 1 || back[0] != ev {
			t.Fatalf("String/Parse round trip broke %+v: got %+v, err %v", ev, back, err)
		}
	}
	if got, err := ParseFaultSchedule(""); err != nil || got != nil {
		t.Fatalf("empty schedule: got %+v, err %v", got, err)
	}
	for _, bad := range []string{"x", "10:fail", "10:explode:2-3", "ten:fail:2-3", "10:fail:2", "10:fail:a-b"} {
		if _, err := ParseFaultSchedule(bad); err == nil {
			t.Errorf("ParseFaultSchedule(%q) accepted", bad)
		}
	}
}

func TestValidateFaultSchedule(t *testing.T) {
	g := topology.MustMesh(4, 4).Graph
	ok := []FaultEvent{
		{Cycle: 100, A: 1, B: 2, Fail: true},
		{Cycle: 100, A: 5, B: 6, Fail: true},
		{Cycle: 200, A: 2, B: 1, Fail: false}, // reversed endpoints normalize
		{Cycle: 300, A: 5, B: 6, Fail: false},
	}
	if err := ValidateFaultSchedule(g, ok); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name  string
		sched []FaultEvent
		want  string
	}{
		{"unsorted", []FaultEvent{{Cycle: 200, A: 1, B: 2, Fail: true}, {Cycle: 100, A: 5, B: 6, Fail: true}}, "not sorted"},
		{"negative", []FaultEvent{{Cycle: -1, A: 1, B: 2, Fail: true}}, "negative cycle"},
		{"duplicate", []FaultEvent{{Cycle: 100, A: 1, B: 2, Fail: true}, {Cycle: 100, A: 2, B: 1, Fail: false}}, "duplicate"},
		{"fail-down", []FaultEvent{{Cycle: 100, A: 1, B: 2, Fail: true}, {Cycle: 200, A: 1, B: 2, Fail: true}}, "no edge"},
		{"recover-up", []FaultEvent{{Cycle: 100, A: 1, B: 2, Fail: false}}, "already present"},
		{"no-such-link", []FaultEvent{{Cycle: 100, A: 0, B: 15, Fail: true}}, "no edge"},
		{"disconnect", []FaultEvent{
			{Cycle: 100, A: 0, B: 1, Fail: true},
			{Cycle: 200, A: 0, B: 4, Fail: true},
		}, "disconnects"},
	}
	for _, tc := range cases {
		err := ValidateFaultSchedule(g, tc.sched)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestBuildRejectsFaultScheduleWithDoR(t *testing.T) {
	_, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDoR,
		FaultSchedule: []FaultEvent{{Cycle: 100, A: 1, B: 2, Fail: true}}})
	if err == nil || !strings.Contains(err.Error(), "fault schedule") {
		t.Fatalf("DoR with fault schedule: err %v", err)
	}
}

// TestFaultScheduleByteIdenticalAcrossEngines runs the same faulty
// schedule under both engines; the full result — counters (drops and
// reroutes included), latency statistics and the per-event
// reconfiguration reports — must be byte-identical. Faults are a model
// change, the engine is not.
func TestFaultScheduleByteIdenticalAcrossEngines(t *testing.T) {
	sched := []FaultEvent{
		{Cycle: 300, A: 1, B: 2, Fail: true},
		{Cycle: 500, A: 5, B: 6, Fail: true},
		{Cycle: 900, A: 1, B: 2, Fail: false},
	}
	base := Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Epoch: 256,
		Seed: 7, FaultSchedule: sched}
	run := func(p Params) (SyntheticResult, []noc.ReconfigReport) {
		t.Helper()
		r, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := traffic.ByName("uniform", r.Graph.N(), p.Width)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(pat, 0.10, 200, 1200)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.FaultReports
	}
	ref, refReps := run(base)
	if ref.Counters.Reconfigs != 3 {
		t.Fatalf("Reconfigs = %d, want 3", ref.Counters.Reconfigs)
	}
	if len(refReps) != 3 {
		t.Fatalf("FaultReports = %+v, want 3 entries", refReps)
	}
	dense := base
	dense.Engine = noc.EngineDense
	res, reps := run(dense)
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("dense: result diverges:\n got %+v\nwant %+v", res, ref)
	}
	if !reflect.DeepEqual(reps, refReps) {
		t.Errorf("dense: reconfig reports diverge: got %+v want %+v", reps, refReps)
	}
}

// TestFaultScheduleChangesResults: a fault schedule is a
// model change — the same run with and without it must differ.
func TestFaultScheduleChangesResults(t *testing.T) {
	base := Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Epoch: 256, Seed: 7}
	withFaults := base
	withFaults.FaultSchedule = []FaultEvent{{Cycle: 300, A: 1, B: 2, Fail: true}}
	run := func(p Params) SyntheticResult {
		t.Helper()
		r, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := traffic.ByName("uniform", r.Graph.N(), p.Width)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(pat, 0.10, 200, 1200)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(base), run(withFaults)
	if reflect.DeepEqual(a, b) {
		t.Fatal("fault schedule did not change the result")
	}
	if b.Counters.Reconfigs != 1 {
		t.Fatalf("Reconfigs = %d, want 1", b.Counters.Reconfigs)
	}
}
