package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"time"

	"drain/internal/core"
	"drain/internal/drainpath"
	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/sim"
	"drain/internal/stats"
	"drain/internal/topology"
	"drain/internal/traffic"
)

// cycleSpec is a synthetic-traffic workload on the 8x8 DRAIN network:
// prime, then time windows of a fixed cycle count on one runner.
type cycleSpec struct {
	rate       float64
	epoch      int64 // DRAIN epoch; 0 keeps the 64K-cycle default
	faultEvery int64 // cycles between scheduled link events; 0: no faults
}

const (
	meshSide  = 8
	meshNodes = meshSide * meshSide
)

// The salts sim's run loops fold into Params.Seed. The traced loops
// below rebuild those loops from exported calls and need the same
// streams; if sim changes a salt, the traced-equals-untraced check fails
// until this copy follows.
const (
	generatorSeedSalt = 0x1234     // sim.RunSyntheticContext
	coherenceSeedSalt = 0x517cc1b7 // sim.RunAppContext
)

// deriveSeed makes an independent input seed from the run's -seed and a
// purpose tag, so the simulator receives only generated inputs.
func deriveSeed(seed uint64, tag string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	x := seed ^ h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // the server reads seed 0 as "default"
	}
	return x
}

func (cs cycleSpec) params(w *workload, cfg runConfig) (sim.Params, error) {
	p := sim.Params{
		Width: meshSide, Height: meshSide, Scheme: sim.SchemeDRAIN,
		Epoch: cs.epoch, Seed: deriveSeed(cfg.seed, w.name+"/traffic"),
	}
	if cs.faultEvery > 0 {
		mesh, err := topology.NewMesh(meshSide, meshSide)
		if err != nil {
			return p, err
		}
		rng := rand.New(rand.NewPCG(deriveSeed(cfg.seed, w.name+"/faults"), 1))
		until := cfg.sz.prime + int64(cfg.sz.ops)*cfg.sz.window
		p.FaultSchedule = alternatingFaults(mesh.Graph, rng, cs.faultEvery, until)
	}
	return p, nil
}

// alternatingFaults schedules, every `every` cycles before `until`, the
// failure of a random removable link and then its recovery, so at most
// one link is down at a time and every event is a full reconfiguration.
func alternatingFaults(g *topology.Graph, rng *rand.Rand, every, until int64) []sim.FaultEvent {
	removable := topology.RemovableEdges(g)
	var sched []sim.FaultEvent
	var down topology.Edge
	fail := true
	for c := every; c < until; c += every {
		if fail {
			down = removable[rng.IntN(len(removable))]
		}
		sched = append(sched, sim.FaultEvent{Cycle: c, A: down.A, B: down.B, Fail: fail})
		fail = !fail
	}
	return sched
}

func runCycle(w *workload, cs cycleSpec, cfg runConfig, b *bench) error {
	p, err := cs.params(w, cfg)
	if err != nil {
		return err
	}
	pat := traffic.UniformRandom{N: meshNodes}
	if cfg.traced {
		return traceCycle(cs, p, pat, cfg, b)
	}
	sz := cfg.sz
	var r *sim.Runner
	var setups []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		t0 := time.Now()
		if r, err = sim.Build(p); err != nil {
			return err
		}
		if _, err = r.RunSynthetic(pat, cs.rate, 0, sz.prime); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	results := make([]sim.SyntheticResult, sz.ops)
	run := timedOps(&b.chk, 1, sz.ops, func(_, i int) (err error) {
		results[i], err = r.RunSynthetic(pat, cs.rate, 0, sz.window)
		return err
	})
	for _, res := range results {
		digestWindow(b.dig, outputOf(res))
	}
	checkNetwork(b, r.Net)
	b.endToEnd(setups, run)
	return nil
}

// windowOutput is what one window deterministically produced; the
// untraced sim.RunSynthetic call and the traced loop must agree on it.
type windowOutput struct {
	avgLatency    float64
	p99           int64
	accepted      float64
	cycle         int64
	fastForwarded int64
	counters      noc.Counters
}

func outputOf(res sim.SyntheticResult) windowOutput {
	return windowOutput{
		avgLatency: res.AvgLatency, p99: res.P99Latency, accepted: res.Accepted,
		cycle: res.Cycles, fastForwarded: res.FastForwarded, counters: res.Counters,
	}
}

func (o windowOutput) String() string {
	return fmt.Sprintf("lat=%v p99=%d acc=%v cycle=%d ff=%d %s",
		o.avgLatency, o.p99, o.accepted, o.cycle, o.fastForwarded, counterText(o.counters))
}

func digestWindow(d *digest, o windowOutput) { d.addf("window %s", o) }

// counterText renders every exported scalar field of noc.Counters by
// reflection, so a counter added later is covered without an edit here.
func counterText(c noc.Counters) string {
	v := reflect.ValueOf(c)
	t := v.Type()
	s := ""
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() && f.Type.Kind() == reflect.Int64 {
			s += fmt.Sprintf("%s=%d ", f.Name, v.Field(i).Int())
		}
	}
	return s
}

// checkNetwork verifies packet conservation and the network's own
// structural invariants at the end of a run; each is one check.
func checkNetwork(b *bench, net *noc.Network) {
	c := net.Counters
	inside := int64(net.InFlightPackets())
	b.chk.check(c.Created == c.Ejected+inside+c.FaultDrops,
		"conservation: created %d != ejected %d + in flight %d + fault drops %d", c.Created, c.Ejected, inside, c.FaultDrops)
	err := net.CheckInvariants()
	b.chk.check(err == nil, "network invariants: %v", err)
}

// tracedSynth drives the loop sim.RunSyntheticContext runs, from here,
// through exported calls only, timing each layer's call.
type tracedSynth struct {
	tr     *tracer
	r      *sim.Runner
	pat    traffic.Pattern
	rate   float64
	active *topology.Graph // fault-free subgraph, as sim.Runner tracks it
	nextEv int             // next unapplied event of Params.FaultSchedule
}

// tracedWindow is one traced window's layer times and output.
type tracedWindow struct {
	total                                 int64
	tick, step, scheme, drainTick, sink   layerTime
	edgeEdit, remap, nocReconf, coreRecon layerTime
	occupiedSum, occupiedSamples          int64
	out                                   windowOutput
}

// children is the time the window spent inside timed layers; the rest
// of total is the loop's own (statistics, fast-forward probing,
// bookkeeping, and the clock reads themselves).
func (w *tracedWindow) children() int64 {
	return w.tick.busy + w.step.busy + w.scheme.busy + w.sink.busy +
		w.edgeEdit.busy + w.remap.busy + w.nocReconf.busy + w.coreRecon.busy
}

// occupancyEvery is the sampling period of noc.occupied_vcs_avg.
const occupancyEvery = 1024

func (ts *tracedSynth) nextFaultCycle() int64 {
	if sched := ts.r.Params.FaultSchedule; ts.nextEv < len(sched) {
		return sched[ts.nextEv].Cycle
	}
	return math.MaxInt64
}

// applyDueFaults is sim.Runner.applyDueFaults + reconfigure, split into
// its four layer calls.
func (ts *tracedSynth) applyDueFaults(w *tracedWindow) error {
	r, sched := ts.r, ts.r.Params.FaultSchedule
	now := r.Net.Cycle()
	t0 := ts.tr.now()
	for ts.nextEv < len(sched) && sched[ts.nextEv].Cycle <= now {
		ev := sched[ts.nextEv]
		var err error
		if ev.Fail {
			ts.active, err = ts.active.WithoutEdge(ev.A, ev.B)
		} else {
			ts.active, err = ts.active.WithEdge(ev.A, ev.B)
		}
		if err != nil {
			return err
		}
		ts.nextEv++
	}
	t1 := ts.tr.now()
	tab, err := routing.NewTableRemapped(ts.active, r.Graph, 0)
	if err != nil {
		return err
	}
	t2 := ts.tr.now()
	if _, err := r.Net.Reconfigure(ts.active, tab); err != nil {
		return err
	}
	t3 := ts.tr.now()
	if err := r.Drain.Reconfigure(ts.active); err != nil {
		return err
	}
	t4 := ts.tr.now()
	w.edgeEdit.add(t0, t1)
	w.remap.add(t1, t2)
	w.nocReconf.add(t2, t3)
	w.coreRecon.add(t3, t4)
	return nil
}

// window runs `cycles` cycles exactly as r.RunSynthetic(pat, rate, 0,
// cycles) would: same generator stream, same call order, same idle
// fast-forward windows. op labels the spans (-1 for priming).
func (ts *tracedSynth) window(op int, cycles int64) (tracedWindow, error) {
	var w tracedWindow
	r, net, tr := ts.r, ts.r.Net, ts.tr
	nodes := r.Graph.N()
	gen := traffic.NewGeneratorMode(ts.pat, ts.rate, r.Params.Seed^generatorSeedSalt, traffic.RNGExact, nodes)
	gen.CtrlFraction = max(0, r.Params.CtrlFraction)
	gen.DataFlits = r.Params.MaxFlits
	var lat stats.Sample
	var delivered int64
	measuring := false
	net.OnEject = func(p *noc.Packet) {
		if measuring {
			lat.Add(p.NetworkLatency())
			delivered++
		}
	}
	defer func() { net.OnEject = nil }()

	start := tr.now()
	base := net.Cycle()
	for cyc := int64(0); cyc < cycles; cyc++ {
		if ts.nextFaultCycle() <= net.Cycle() {
			if err := ts.applyDueFaults(&w); err != nil {
				return w, err
			}
		}
		t0 := tr.now()
		if !net.Frozen() {
			gen.Tick(net)
		}
		t1 := tr.now()
		net.Step()
		t2 := tr.now()
		draining := r.Drain.Draining()
		if err := r.TickScheme(); err != nil {
			return w, err
		}
		t3 := tr.now()
		if cyc == 0 {
			measuring = true
		}
		net.DiscardEjected()
		t4 := tr.now()
		w.tick.add(t0, t1)
		w.step.add(t1, t2)
		w.scheme.add(t2, t3)
		if draining {
			w.drainTick.add(t2, t3)
		}
		w.sink.add(t3, t4)
		if net.Cycle()%occupancyEvery == 0 {
			w.occupiedSum += int64(net.OccupiedVCs())
			w.occupiedSamples++
		}
		if !net.Frozen() {
			u := min(net.NextWorkCycle(), r.Drain.NextWorkCycle()) - base - 1
			if fb := ts.nextFaultCycle() - base; fb < u {
				u = fb
			}
			u = min(u, cycles)
			if pb := (base+cyc+noc.CancelCheckEvery)&^(noc.CancelCheckEvery-1) - base; pb < u {
				u = pb
			}
			if quiet := u - (cyc + 1); quiet > 0 {
				skipped := gen.SkipQuiet(nodes, quiet)
				net.SkipIdle(skipped)
				cyc += skipped
				w.out.fastForwarded += skipped
			}
		}
	}
	end := tr.now()
	w.total = end - start
	w.out.cycle = net.Cycle()
	w.out.counters = net.Counters
	w.out.avgLatency = lat.Mean()
	w.out.p99 = lat.P99()
	w.out.accepted = float64(delivered) / float64(nodes) / float64(cycles)

	root := tr.add("sim.window", op, -1, start, end, w.total, 1)
	w.tick.flush(tr, "traffic.tick", op, root, start, end)
	w.step.flush(tr, "noc.step", op, root, start, end)
	w.scheme.flush(tr, "core.tick", op, root, start, end)
	w.sink.flush(tr, "noc.sink", op, root, start, end)
	w.edgeEdit.flush(tr, "topology.edge_edit", op, root, start, end)
	w.remap.flush(tr, "routing.remap", op, root, start, end)
	w.nocReconf.flush(tr, "noc.reconfigure", op, root, start, end)
	w.coreRecon.flush(tr, "core.reconfigure", op, root, start, end)
	return w, nil
}

// traceCycle runs the workload twice in lockstep on identically built
// runners: window i through sim.RunSynthetic (the reference, untraced),
// then window i through the traced loop. The two must produce the same
// output window by window, or the per-layer numbers are withheld.
func traceCycle(cs cycleSpec, p sim.Params, pat traffic.Pattern, cfg runConfig, b *bench) error {
	sz := cfg.sz
	ref, err := sim.Build(p)
	if err != nil {
		return err
	}
	r, err := sim.Build(p)
	if err != nil {
		return err
	}
	if err := probeLayers(b, p, r); err != nil {
		return err
	}
	ts := &tracedSynth{tr: b.tr, r: r, pat: pat, rate: cs.rate, active: r.Graph}

	same := func(what string, res sim.SyntheticResult, got windowOutput) {
		want := outputOf(res)
		b.chk.check(want.String() == got.String(), "%s: traced loop diverged from sim.RunSynthetic:\n  want %s\n  got  %s", what, want, got)
	}
	res, err := ref.RunSynthetic(pat, cs.rate, 0, sz.prime)
	if err != nil {
		return err
	}
	primed, err := ts.window(-1, sz.prime)
	if err != nil {
		return err
	}
	same("priming", res, primed.out)
	drainsPrimed := r.Drain.Stats().Drains

	refNs := make([]int64, 0, sz.ops)
	windows := make([]tracedWindow, 0, sz.ops)
	fastForwarded := primed.out.fastForwarded
	host := readHost()
	timedOps(&b.chk, 1, sz.ops, func(_, i int) error {
		t0 := time.Now()
		res, err := ref.RunSynthetic(pat, cs.rate, 0, sz.window)
		if err != nil {
			return err
		}
		refNs = append(refNs, int64(time.Since(t0)))
		w, err := ts.window(i, sz.window)
		if err != nil {
			return err
		}
		windows = append(windows, w)
		same(fmt.Sprintf("window %d", i), res, w.out)
		digestWindow(b.dig, w.out)
		fastForwarded += w.out.fastForwarded
		return nil
	})
	used := host.since()
	b.ops = sz.ops
	checkNetwork(b, r.Net)
	n := len(windows)
	if n == 0 {
		return fmt.Errorf("no window completed")
	}
	// Counts cover priming plus every window: the work is fixed, so they
	// repeat exactly for a fixed seed.
	setNetworkCounts(b, r.Net.Counters, r.Net.PoolFree())
	setDrainCounts(b, r.Drain.Stats())
	b.set("noc.fastforward_cycles", float64(fastForwarded), n, "count")
	b.set("traffic.created", float64(r.Net.Counters.Created), n, "count")
	b.set("traffic.inject_ratio", ratio(float64(r.Net.Counters.Injected), float64(r.Net.Counters.Created)), n, "mean")
	b.set("routing.tables_built", float64(1+r.Net.Counters.Reconfigs), n, "count")

	// Per-window ratios reduce to medians; per-event and per-hop costs
	// divide totals over the timed windows.
	perCycle := func(f func(w *tracedWindow) int64) float64 {
		out := make([]float64, n)
		for i := range windows {
			out[i] = float64(f(&windows[i])) / float64(sz.window)
		}
		return median(out)
	}
	share := func(f func(w *tracedWindow) int64) float64 {
		out := make([]float64, n)
		for i := range windows {
			out[i] = float64(f(&windows[i])) / float64(windows[i].total)
		}
		return median(out)
	}
	stepBusy := func(w *tracedWindow) int64 { return w.step.busy }
	tickBusy := func(w *tracedWindow) int64 { return w.tick.busy }
	b.set("noc.step_ns_per_cycle", perCycle(stepBusy), n, "p50")
	b.set("noc.step_share", share(stepBusy), n, "p50")
	b.set("noc.sink_ns_per_cycle", perCycle(func(w *tracedWindow) int64 { return w.sink.busy }), n, "p50")
	b.set("traffic.tick_ns_per_cycle", perCycle(tickBusy), n, "p50")
	b.set("traffic.tick_share", share(tickBusy), n, "p50")
	b.set("core.tick_ns_per_cycle", perCycle(func(w *tracedWindow) int64 { return w.scheme.busy }), n, "p50")

	var all tracedWindow
	for i := range windows {
		w := &windows[i]
		all.step.merge(w.step)
		all.drainTick.merge(w.drainTick)
		all.edgeEdit.merge(w.edgeEdit)
		all.remap.merge(w.remap)
		all.nocReconf.merge(w.nocReconf)
		all.coreRecon.merge(w.coreRecon)
		all.occupiedSum += w.occupiedSum
		all.occupiedSamples += w.occupiedSamples
	}
	hops := windows[n-1].out.counters.Hops - primed.out.counters.Hops
	b.set("noc.step_ns_per_hop", ratio(float64(all.step.busy), float64(hops)), int(hops), "mean")
	drains := r.Drain.Stats().Drains - drainsPrimed
	b.set("core.drain_tick_us", ratio(float64(all.drainTick.busy)/1e3, float64(drains)), int(drains), "mean")
	perCall := func(l layerTime) float64 { return ratio(float64(l.busy)/1e3, float64(l.calls)) }
	b.set("topology.edge_edit_us", perCall(all.edgeEdit), int(all.edgeEdit.calls), "mean")
	b.set("routing.remap_us", perCall(all.remap), int(all.remap.calls), "mean")
	b.set("noc.reconfigure_us", perCall(all.nocReconf), int(all.nocReconf.calls), "mean")
	b.set("core.reconfigure_us", perCall(all.coreRecon), int(all.coreRecon.calls), "mean")
	b.set("noc.occupied_vcs_avg", ratio(float64(all.occupiedSum), float64(all.occupiedSamples)), int(all.occupiedSamples), "mean")

	// Reference and traced windows alternate, so their difference is
	// taken pair by pair before the median.
	paired := func(f func(refNs int64, w *tracedWindow) float64) float64 {
		out := make([]float64, n)
		for i := range windows {
			out[i] = f(refNs[i], &windows[i])
		}
		return median(out)
	}
	b.set("sim.loop_overhead_ns_per_cycle", paired(func(ref int64, w *tracedWindow) float64 {
		return float64(ref-w.children()) / float64(sz.window)
	}), n, "p50")
	b.set("trace.overhead_share", paired(func(ref int64, w *tracedWindow) float64 {
		return float64(w.total-ref) / float64(ref)
	}), n, "p50")
	hi, label := tail(toFloats(refNs, 1/float64(sz.window)))
	b.set("sim.window_ns_per_cycle_hi", hi, len(refNs), label)
	setHost(b, used, float64(2*n)*float64(sz.window), 0)
	return nil
}

// setNetworkCounts reports the noc event counts of the run.
func setNetworkCounts(b *bench, c noc.Counters, poolFree int) {
	for name, v := range map[string]int64{
		"noc.injected": c.Injected, "noc.ejected": c.Ejected, "noc.hops": c.Hops,
		"noc.misroutes": c.Misroutes, "noc.vc_allocs": c.VCAllocs, "noc.drain_moves": c.DrainMoves,
		"noc.frozen_cycles": c.FrozenCyc, "noc.reconfigs": c.Reconfigs, "noc.fault_drops": c.FaultDrops,
		"noc.fault_reroutes": c.FaultReroutes, "noc.recycled": c.Recycled, "noc.pool_free": int64(poolFree),
	} {
		b.set(name, float64(v), 1, "count")
	}
}

func setDrainCounts(b *bench, st core.Stats) {
	b.set("core.drains", float64(st.Drains), 1, "count")
	b.set("core.full_drains", float64(st.FullDrains), 1, "count")
	b.set("core.packets_moved", float64(st.PacketsMoved), 1, "count")
}

// setHost reports the Go runtime's cost over a timed part: per thousand
// simulated cycles for the cycle workloads, per request for the serve
// workloads (pass 0 for the one that does not apply).
func setHost(b *bench, h hostStats, cycles, requests float64) {
	if cycles > 0 {
		b.set("host.allocs_per_kcycle", float64(h.mallocs)/(cycles/1e3), int(cycles), "mean")
		b.set("host.bytes_per_kcycle", float64(h.bytes)/(cycles/1e3), int(cycles), "mean")
	}
	if requests > 0 {
		b.set("host.allocs_per_request", float64(h.mallocs)/requests, int(requests), "mean")
	}
	b.set("host.gc_cycles", float64(h.gcCycles), 1, "count")
	b.set("host.gc_pause_ms", float64(h.gcPauseNs)/1e6, int(h.gcCycles), "sum")
	b.set("host.heap_inuse_mb", float64(h.heapInuse)/(1<<20), 1, "last")
}

// probeReps is how often each set-up layer is called on its own; the
// median is reported.
const probeReps = 5

// probe times f probeReps times and returns the median in nanoseconds.
func probe(f func() error) (float64, error) {
	var ns []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns), nil
}

// probeLayers times the layers a Build is made of, one exported call
// each, on the workload's own parameters. r is a freshly built runner
// for p (its routing table still matches its graph).
func probeLayers(b *bench, p sim.Params, r *sim.Runner) error {
	var g *topology.Graph
	var mesh *topology.Mesh
	const us, ms = 1e3, 1e6
	probes := []struct {
		name string
		unit float64 // nanoseconds per reported unit
		f    func() error
	}{
		{"topology.build_us", us, func() (err error) { g, mesh, err = p.BuildGraph(); return }},
		{"routing.table_build_us", us, func() error { _, err := routing.NewTable(g, mesh); return err }},
		{"noc.new_us", us, func() error {
			cfg := r.Net.Config()
			cfg.Table = r.Net.Table() // time the network alone, not its routing table
			_, err := noc.New(cfg)
			return err
		}},
		{"drainpath.find_us", us, func() error {
			path, err := drainpath.FindEulerian(g)
			if err == nil {
				b.set("drainpath.path_len", float64(path.Len()), 1, "count")
			}
			return err
		}},
		{"sim.build_ms", ms, func() error { _, err := sim.Build(p); return err }},
	}
	for _, pr := range probes {
		ns, err := probe(pr.f)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		b.set(pr.name, ns/pr.unit, probeReps, "p50")
	}
	return nil
}
