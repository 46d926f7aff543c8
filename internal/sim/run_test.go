package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/traffic"
	"drain/internal/workload"
)

func TestUpDownSchemeRuns(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeUpDown, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 500, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted < 0.03 {
		t.Errorf("up*/down* accepted %.3f at offered 0.05", res.Accepted)
	}
	if res.MisroutesPerK != 0 {
		t.Errorf("up*/down* must never misroute, got %.2f/1k", res.MisroutesPerK)
	}
}

func TestCtrlFractionControlsPacketSize(t *testing.T) {
	// All-control traffic moves more packets per flit than all-data.
	run := func(ctrl float64) SyntheticResult {
		r, err := Build(Params{
			Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 3,
			CtrlFraction: ctrl,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 500, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(1.0)
	big := run(-1) // negative → all MaxFlits-sized
	if small.Counters.LinkFlits >= big.Counters.LinkFlits {
		t.Errorf("all-data traffic should move more flits: %d vs %d",
			small.Counters.LinkFlits, big.Counters.LinkFlits)
	}
	if small.AvgLatency >= big.AvgLatency {
		t.Errorf("1-flit latency %.1f should beat 5-flit %.1f",
			small.AvgLatency, big.AvgLatency)
	}
}

func TestMSHRParamPropagates(t *testing.T) {
	// A larger MSHR budget must raise protocol concurrency (more misses
	// outstanding → more messages for the same ops target).
	prof := workload.MustGet("canneal")
	run := func(mshrs int) AppResult {
		r, err := Build(Params{
			Width: 4, Height: 4, Scheme: SchemeEscapeVC, Classes: 3,
			InjectCap: 16, MSHRs: mshrs, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunApp(prof, 300, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("mshrs=%d did not complete", mshrs)
		}
		return res
	}
	small := run(1)
	big := run(8)
	if big.Runtime >= small.Runtime {
		t.Errorf("more MSHRs should shorten runtime: %d vs %d", big.Runtime, small.Runtime)
	}
}

func TestSyntheticMeasurementWindow(t *testing.T) {
	// Packets created before the warmup boundary must not contaminate
	// the measured latency sample; cheap sanity: zero measure window
	// yields zero accepted and zero latency sample.
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.AvgLatency != 0 {
		t.Errorf("zero measurement window produced data: %+v", res)
	}
}

func TestDrainStatsSurfaceInAppResult(t *testing.T) {
	r, err := Build(Params{
		Width: 4, Height: 4, Scheme: SchemeDRAIN, Classes: 3,
		Epoch: 500, InjectCap: 16, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunApp(workload.MustGet("bodytrack"), 200, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Stall != nil {
		t.Errorf("a completed run reports a stall: %+v", *res.Stall)
	}
	if res.Drains == 0 {
		t.Error("500-cycle epochs over a long run must record drains")
	}
	if res.Spins != 0 {
		t.Error("DRAIN run reported spins")
	}
}

// TestTraceEmitsRecords: a probe's events, written as JSON lines the way
// drainsim -trace writes them, parse back line by line into one record
// per ejection over the whole run (not just the measured window), drain
// windows that each close before the next opens, with the controller's
// counts, and the run's end last.
func TestTraceEmitsRecords(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Epoch: 300, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	pr := &Probe{OnEvent: func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			t.Error(err)
		}
		return false
	}}
	r.Probe = pr
	res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 200, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var ejects, windows, moved int64
	open := false
	var last EventKind
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		switch e.Kind {
		case EventEject:
			if e.Packet == nil || e.Packet.EjectedAt != e.Cycle || e.Packet.Hops == 0 {
				t.Fatalf("malformed eject record %q", sc.Text())
			}
			ejects++
		case EventDrainStart, EventDrainEnd:
			if open != (e.Kind == EventDrainEnd) {
				t.Fatalf("drain window event %q out of order", sc.Text())
			}
			if open = !open; !open {
				windows++
				moved += e.Moved
			}
		}
		last = e.Kind
	}
	if ejects != res.Counters.Ejected {
		t.Errorf("trace has %d eject records, ejected %d", ejects, res.Counters.Ejected)
	}
	if st := r.Drain.Stats(); windows != st.Drains || moved != st.PacketsMoved {
		t.Errorf("trace has %d drain windows moving %d packets, the controller drained %d times moving %d", windows, moved, st.Drains, st.PacketsMoved)
	}
	if last != "run_end" {
		t.Errorf("last event %q, want run_end", last)
	}
}

// TestProbeSeesSpinsAndFaults: on a network SPIN must rescue (one VC,
// strictly minimal routing, saturated) with a link failing and coming
// back, the probe reports one event per detection, spin and
// reconfiguration the controller and the runner count.
func TestProbeSeesSpinsAndFaults(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeSPIN, VCsPerVN: 1, DerouteAfter: -1, SpinTimeout: 256, Seed: 5,
		FaultSchedule: []FaultEvent{{Cycle: 5000, A: 0, B: 1, Fail: true}, {Cycle: 9000, A: 0, B: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[EventKind]int64{}
	var faults []noc.ReconfigReport
	r.Probe = &Probe{OnEvent: func(e Event) bool {
		seen[e.Kind]++
		if e.Kind == EventFault {
			faults = append(faults, *e.Fault)
		}
		return false
	}}
	if _, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.5, 0, 20_000); err != nil {
		t.Fatal(err)
	}
	st := r.Spin.Stats()
	if st.Spins == 0 || seen[EventSpinDetect] != st.Detections || seen[EventSpin] != st.Spins {
		t.Errorf("probe saw %d detections and %d spins, the controller counts %+v (want some)", seen[EventSpinDetect], seen[EventSpin], st)
	}
	if !reflect.DeepEqual(faults, r.FaultReports) || len(faults) != 2 {
		t.Errorf("probe saw faults %+v, the runner applied %+v", faults, r.FaultReports)
	}
}

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeNone: "none", SchemeIdeal: "ideal", SchemeEscapeVC: "escape-vc",
		SchemeSPIN: "spin", SchemeDRAIN: "drain", SchemeUpDown: "updown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme should still render")
	}
}

func TestBuildRejectsUnknownScheme(t *testing.T) {
	if _, err := Build(Params{Width: 4, Height: 4, Scheme: Scheme(99)}); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestDoRScheme(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDoR, Classes: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Net.Config().VNets != 3 {
		t.Errorf("DoR VNets = %d, want 3 (one per class)", r.Net.Config().VNets)
	}
	res, err := r.RunSynthetic(traffic.UniformRandom{N: 16}, 0.05, 500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MisroutesPerK != 0 {
		t.Errorf("deterministic DoR misrouted %.2f/1k", res.MisroutesPerK)
	}
	if res.Accepted < 0.04 || res.Stall != nil {
		t.Errorf("DoR degenerate: %+v", res)
	}
	// DoR on a faulty mesh must be rejected.
	if _, err := Build(Params{Width: 4, Height: 4, Faults: 2, Scheme: SchemeDoR, Seed: 7}); err == nil {
		t.Error("DoR on a faulty mesh should fail")
	}
}

func TestStickyEscapeParam(t *testing.T) {
	sticky, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, StickyEscape: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sticky.Net.Config().NonStickyEscape {
		t.Error("StickyEscape param ignored")
	}
	def, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Net.Config().NonStickyEscape {
		t.Error("DRAIN default should be non-sticky")
	}
}

func TestRunAppRequiresThreeClasses(t *testing.T) {
	r, err := Build(Params{Width: 4, Height: 4, Scheme: SchemeDRAIN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunApp(workload.MustGet("lu"), 10, 1000); err == nil {
		t.Error("coherence run on 1-class network should fail")
	}
}

// A forward's answer injects two Response packets at once, so a
// coherence run with one injection slot per class could never answer
// one: it is refused up front, naming why. Unbounded (0) and two slots
// run.
func TestRunAppRefusesOneInjectionSlot(t *testing.T) {
	for _, tc := range []struct {
		injectCap int
		refused   bool
	}{{1, true}, {0, false}, {2, false}} {
		r, err := Build(Params{Width: 3, Height: 3, Scheme: SchemeDRAIN, Classes: 3, InjectCap: tc.injectCap, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunApp(workload.MustGet("lu"), 20, 100_000)
		switch {
		case tc.refused && (err == nil || !strings.Contains(err.Error(), "Response")):
			t.Errorf("InjectCap %d: err = %v, want a refusal naming the Response pair", tc.injectCap, err)
		case tc.refused && r.Net.Cycle() != 0:
			t.Errorf("InjectCap %d: refused after %d cycles, want before the first", tc.injectCap, r.Net.Cycle())
		case !tc.refused && (err != nil || !res.Completed):
			t.Errorf("InjectCap %d: err = %v, completed = %v; want a completed run", tc.injectCap, err, res.Completed)
		}
	}
}

// TestRunAppPastSixtyFourCores runs a coherence workload on a 9x8 mesh:
// 72 cores, so the directory's sharer sets span two words, a size no
// figure reaches. The run must complete with the network consistent.
func TestRunAppPastSixtyFourCores(t *testing.T) {
	r, err := Build(Params{Width: 9, Height: 8, Scheme: SchemeDRAIN, Classes: 3, InjectCap: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunApp(workload.MustGet("canneal"), 100, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("9x8 canneal did not complete in %d cycles: %+v", res.Runtime, res.Protocol)
	}
	if err := r.Net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Protocol.MsgsByType[coherence.Inv] == 0 {
		t.Error("no line was ever shared and then written: the run invalidated nothing")
	}
}
