package drain

// Steady-state allocation guard for the simulator hot path. The per-cycle
// core (Network.Step: arrival completion, switch/VC allocation, injection)
// must not heap-allocate once warm: routing candidates are precomputed
// immutable tables, arbitration uses Network-owned scratch arenas, and the
// injection/ejection queues are pre-sized rings. Packet *creation* is the
// workload's allocation and happens outside Step.

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/sim"
	"drain/internal/topology"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// stepAllocsPerCycle measures amortized heap allocations per Network.Step
// on a warmed-up, loaded 8x8 DRAIN network whose injection queues were
// pre-filled so the measured cycles keep injecting without creating
// packets.
func stepAllocsPerCycle(tb testing.TB) float64 {
	tb.Helper()
	r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	gen := traffic.NewGenerator(traffic.UniformRandom{N: 64}, 0.20, 7)
	sink := func() {
		for n := 0; n < 64; n++ {
			for p := r.Net.PopEjected(n, 0); p != nil; p = r.Net.PopEjected(n, 0) {
			}
		}
	}
	// Warm up: real traffic grows every scratch arena, ring and the
	// in-flight slice to its working size.
	for cyc := 0; cyc < 2000; cyc++ {
		gen.Tick(r.Net)
		r.Net.Step()
		if err := r.TickScheme(); err != nil {
			tb.Fatal(err)
		}
		sink()
	}
	// Stock the injection queues up front (packet allocation happens
	// here, outside the measured region) so injectFromQueues stays busy
	// for the whole measurement.
	for i := 0; i < 20; i++ {
		gen.Tick(r.Net)
	}
	return testing.AllocsPerRun(400, func() {
		r.Net.Step()
		sink()
	})
}

// TestStepAllocs fails when the steady-state hot path regresses to
// allocating: the budget is ≤ 2 amortized allocations per cycle (the
// target is 0; the slack absorbs one-off growth of a scratch buffer that
// crosses its previous high-water mark mid-measurement).
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	if allocs := stepAllocsPerCycle(t); allocs > 2 {
		t.Errorf("Network.Step allocates %.2f times per steady-state cycle, budget is 2", allocs)
	}
}

// TestStepWindowAllocs holds a whole measured window of the run loop —
// BenchmarkStep's six (load, engine) runners, primed the same way, one
// RunSynthetic window each — to the stepLoads ceilings, in allocations
// and in bytes: about 3x what the pooled simulator allocates there (the
// window's own statistics and closures), two to three orders of
// magnitude under what a per-packet or per-cycle allocation would cost.
// The byte ceiling is what a count cannot see: one slice that grows with
// the packets delivered (73 k of them in a saturated window) is a dozen
// allocations and a megabyte.
func TestStepWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, load := range stepLoads {
		for _, eng := range []noc.EngineKind{noc.EngineEvent, noc.EngineDense} {
			r, pat := primedStepRunner(t, load.rate, eng)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if _, err := r.RunSynthetic(pat, load.rate, 0, stepWindow); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			allocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
			t.Logf("%s/%s: %d allocations, %d bytes in a %d-cycle window", load.name, eng, allocs, bytes, stepWindow)
			if allocs > load.maxAllocs {
				t.Errorf("%s/%s: %d allocations in a %d-cycle window, ceiling is %d", load.name, eng, allocs, stepWindow, load.maxAllocs)
			}
			if bytes > load.maxBytes {
				t.Errorf("%s/%s: %d bytes allocated in a %d-cycle window, ceiling is %d", load.name, eng, bytes, stepWindow, load.maxBytes)
			}
		}
	}
}

// TestProbeWindowAllocs holds a mid-load window (8x8 DRAIN at 0.10, as
// in TestStepWindowAllocs, but with a 512-cycle epoch, so the window
// holds ten drain windows) with a recording probe set: every event other
// than ejections kept in a slice sized up front. Delivering an event
// allocates nothing: the window reads 15 allocations and 10 848 bytes
// with the probe and without it (GOMAXPROCS(1), exact run to run), the
// bytes mostly the latency sample growing to the drains' longer
// latencies. The ceiling is 30 allocations and 16 KiB.
func TestProbeWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Epoch: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.UniformRandom{N: 64}
	if _, err := r.RunSynthetic(pat, 0.10, 0, 2000); err != nil {
		t.Fatal(err)
	}
	events := make([]sim.Event, 0, 64)
	r.Probe = &sim.Probe{OnEvent: func(e sim.Event) bool {
		if e.Kind != sim.EventEject {
			events = append(events, e)
		}
		return false
	}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := r.RunSynthetic(pat, 0.10, 0, stepWindow); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	t.Logf("%d allocations, %d bytes, %d events in a %d-cycle window", allocs, bytes, len(events), stepWindow)
	if len(events) < 20 {
		t.Fatalf("recorded %d events: the probe saw nothing", len(events))
	}
	if allocs > 30 || bytes > 16<<10 {
		t.Errorf("%d allocations and %d bytes with a recording probe, ceiling is 30 and 16 KiB", allocs, bytes)
	}
}

// BenchmarkStepAllocs reports the amortized allocation count alongside
// the figure benchmarks (0 in steady state; see TestStepAllocs for the
// enforced budget).
func BenchmarkStepAllocs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(stepAllocsPerCycle(b), "allocs/cycle")
	}
}

// runAllocsPerDelivered measures heap allocations per delivered packet
// over a whole warmed-up run — packet creation INCLUDED, unlike
// stepAllocsPerCycle, which stocks its queues outside the measured
// region. With the packet free-list this must stay near zero: consumers
// recycle ejected packets, so steady-state NewPacket is a pool pop and
// the total allocation count is O(peak in-flight), not O(injected).
func runAllocsPerDelivered(tb testing.TB) float64 {
	tb.Helper()
	r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	gen := traffic.NewGenerator(traffic.UniformRandom{N: 64}, 0.20, 7)
	delivered := 0
	tick := func() {
		gen.Tick(r.Net)
		r.Net.Step()
		if err := r.TickScheme(); err != nil {
			tb.Fatal(err)
		}
		for n := 0; n < 64; n++ {
			for p := r.Net.PopEjected(n, 0); p != nil; p = r.Net.PopEjected(n, 0) {
				delivered++
				r.Net.ReleasePacket(p)
			}
		}
	}
	// Warm up: grow every arena and the free list to working size.
	for cyc := 0; cyc < 2000; cyc++ {
		tick()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	delivered = 0
	for cyc := 0; cyc < 2000; cyc++ {
		tick()
	}
	runtime.ReadMemStats(&m1)
	if delivered == 0 {
		tb.Fatal("measured window delivered no packets")
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(delivered)
}

// TestRunAllocsPerDeliveredPacket enforces the whole-run budget: at most
// 0.1 amortized allocations per delivered packet (the target is 0; the
// slack absorbs a scratch structure crossing its high-water mark and the
// runtime's own background allocations during the window).
func TestRunAllocsPerDeliveredPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	if allocs := runAllocsPerDelivered(t); allocs > 0.1 {
		t.Errorf("whole run allocates %.3f times per delivered packet, budget is 0.1", allocs)
	}
}

// TestAppRunAllocsPerMessage is the coherence side of the budget above:
// a warmed window of coh_pagerank's DRAIN leg (8x8 pagerank, VN1/VC6)
// allocates well under one heap object per protocol message sent, since
// messages and MSHRs come off the System's free lists and packets off
// the network's. What remains is directory growth: a home's first
// reference to a line installs its record, and a line's first Shared
// transition its sharer set. Measured 0.047 allocations per message
// (1 544 over 32 770 in a 3000-cycle window; runtime.MemStats under
// GOMAXPROCS(1), exact run to run); the ceiling is 0.1. Boxing each Msg
// into the payload and allocating each MSHR read 1.26.
func TestAppRunAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	r, err := sim.Build(sim.Params{
		Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Classes: coherence.NumClasses,
		VNets: 1, VCsPerVN: 6, Epoch: 8192, InjectCap: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := coherence.New(r.Net, coherence.Config{Gen: workload.MustGet("pagerank"), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cycles int) {
		for i := 0; i < cycles; i++ {
			r.Net.Step()
			if err := r.TickScheme(); err != nil {
				t.Fatal(err)
			}
			sys.Tick()
		}
	}
	run(3000) // warm up: grow the free lists, rings and scratch to working size
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sent := sys.Stats().MsgsSent
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run(3000)
	runtime.ReadMemStats(&m1)
	msgs := sys.Stats().MsgsSent - sent
	if msgs == 0 {
		t.Fatal("measured window sent no messages")
	}
	perMsg := float64(m1.Mallocs-m0.Mallocs) / float64(msgs)
	t.Logf("%d allocations over %d messages: %.3f per message", m1.Mallocs-m0.Mallocs, msgs, perMsg)
	if perMsg > 0.1 {
		t.Errorf("a warmed pagerank window allocates %.3f times per message sent, budget is 0.1", perMsg)
	}
}

// BenchmarkRunAllocs reports the whole-run amortized figure next to
// BenchmarkStepAllocs.
func BenchmarkRunAllocs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(runAllocsPerDelivered(b), "allocs/pkt")
	}
}

// TestValidateFaultScheduleAllocs pins the edge-set replay's cost model:
// scratch allocated once per call, whatever the schedule's length, and a
// per-call total the server can afford at its largest admitted mesh.
func TestValidateFaultScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	mesh := topology.MustMesh(8, 8)
	allocs := func(g *topology.Graph, sched []sim.FaultEvent) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := sim.ValidateFaultSchedule(g, sched); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := allocs(mesh.Graph, alternatingSchedule(mesh.Graph, 10))
	long := allocs(mesh.Graph, alternatingSchedule(mesh.Graph, 1700))
	if short != long || long > 4 {
		t.Errorf("10 events: %.0f allocations, 1700 events: %.0f; want the same count, at most 4", short, long)
	}
	// The server's bounds: maxMesh 64, 256 events.
	big := topology.MustMesh(64, 64).Graph
	sched := alternatingSchedule(big, 256)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := sim.ValidateFaultSchedule(big, sched); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	// Four slices of scratch; the slack is the runtime's own, around the
	// two ReadMemStats calls. One graph of this mesh is 4.8 MB.
	if n, b := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; n > 16 || b > 160<<10 {
		t.Errorf("256 events on 64x64: %d allocations, %d bytes; ceiling is 16 and 160 KiB (no graph per event)", n, b)
	}
}

// alternatingSchedule fails a removable link of g and recovers it, over
// and over, one event per cycle: n events, at most one link down.
func alternatingSchedule(g *topology.Graph, n int) []sim.FaultEvent {
	removable := topology.RemovableEdges(g)
	rng := rand.New(rand.NewPCG(7, 7))
	sched := make([]sim.FaultEvent, n)
	var e topology.Edge
	for i := range sched {
		if i%2 == 0 {
			e = removable[rng.IntN(len(removable))]
		}
		sched[i] = sim.FaultEvent{Cycle: int64(i + 1), A: e.A, B: e.B, Fail: i%2 == 0}
	}
	return sched
}

// TestRestoreBuildsNoTable measures what the two halves of a fail/recover
// pair allocate on the 8x8 DRAIN runner: the failure pays for a graph, a
// table and a drain path; the recovery reinstalls what the runner was
// built on, so its window must cost a small fraction of the failure's.
func TestRestoreBuildsNoTable(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r, err := sim.Build(sim.Params{Width: 8, Height: 8, Scheme: sim.SchemeDRAIN, Seed: 1, FaultSchedule: []sim.FaultEvent{
		{Cycle: 1000, A: 27, B: 28, Fail: true},
		{Cycle: 2000, A: 27, B: 28, Fail: false},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.UniformRandom{N: 64}
	window := func() uint64 {
		t.Helper()
		reconfigs := r.Net.Counters.Reconfigs
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := r.RunSynthetic(pat, 0.1, 0, 1000); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if r.Net.Counters.Reconfigs != reconfigs+1 {
			t.Fatalf("window to cycle %d applied %d reconfigurations, want 1", r.Net.Cycle(), r.Net.Counters.Reconfigs-reconfigs)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	if _, err := r.RunSynthetic(pat, 0.1, 0, 1000); err != nil { // prime: the failure is due on the next cycle
		t.Fatal(err)
	}
	fail, restore := window(), window()
	t.Logf("failure window: %d bytes, restore window: %d bytes", fail, restore)
	if fail < 100<<10 {
		t.Errorf("the failure window allocated %d bytes: less than one 8x8 table, the test measures nothing", fail)
	}
	if restore > fail/4 {
		t.Errorf("the restore window allocated %d bytes, the failure's %d: a restore must not build a table", restore, fail)
	}
}
