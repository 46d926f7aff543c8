package sim

import (
	"context"
	"fmt"

	"drain/internal/coherence"
	"drain/internal/noc"
	"drain/internal/stats"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// SyntheticResult summarizes an open-loop synthetic-traffic run.
type SyntheticResult struct {
	Offered       float64 // requested injection rate, packets/node/cycle
	Accepted      float64 // measured ejection rate, packets/node/cycle
	AvgLatency    float64 // mean network latency (cycles)
	P99Latency    int64
	AvgHops       float64
	MisroutesPerK float64 // misroutes per 1000 delivered packets
	Stall         *Stall  // what the stall watch saw; nil: no stall
	Counters      noc.Counters
	Cycles        int64
	// FastForwarded is always 0, as every run steps every cycle: kept
	// for the frozen cmd/drainbench/cycle.go until ROADMAP B1(d).
	FastForwarded int64
}

// RunSynthetic drives the runner's network with the given pattern and
// rate for warmup+measure cycles, measuring only the post-warmup window.
// SchemeNone runs stop early on a confirmed deadlock (see Stall).
func (r *Runner) RunSynthetic(pattern traffic.Pattern, rate float64, warmup, measure int64) (SyntheticResult, error) {
	return r.RunSyntheticContext(context.Background(), pattern, rate, warmup, measure)
}

// RunSyntheticContext is RunSynthetic with cancellation: the step loop
// polls ctx every noc.CancelCheckEvery cycles and returns a
// cancellation error (wrapping ctx.Err()) within that cycle bound. With
// context.Background() the results are byte-identical to RunSynthetic.
func (r *Runner) RunSyntheticContext(ctx context.Context, pattern traffic.Pattern, rate float64, warmup, measure int64) (SyntheticResult, error) {
	gen := traffic.NewGenerator(pattern, rate, r.Params.Seed^0x1234)
	gen.CtrlFraction = max(0, r.Params.CtrlFraction)
	gen.DataFlits = r.Params.MaxFlits
	var lat stats.Sample
	var hops, misroutes, delivered int64
	l := runLoop{gen: gen, warmup: warmup, total: warmup + measure, measure: func(p *noc.Packet) {
		lat.Add(p.NetworkLatency())
		hops += int64(p.Hops)
		misroutes += int64(p.Misroutes)
		delivered++
	}}
	if err := r.loop(ctx, &l); err != nil {
		return SyntheticResult{Offered: rate}, err
	}
	res := SyntheticResult{
		Offered:    rate,
		AvgLatency: lat.Mean(),
		P99Latency: lat.P99(),
		Stall:      l.stall,
		Counters:   r.Net.Counters,
		Cycles:     r.Net.Cycle(),
	}
	if delivered > 0 {
		res.AvgHops = float64(hops) / float64(delivered)
		res.MisroutesPerK = 1000 * float64(misroutes) / float64(delivered)
	}
	if measure > 0 {
		res.Accepted = float64(delivered) / float64(r.Graph.N()) / float64(measure)
	}
	return res, nil
}

// runLoop is one run through (*Runner).loop: its traffic source — a
// generator (synthetic) or a coherence system (app) — and settings, then
// what the loop saw. measure sees every ejection after iteration warmup
// (-1: from the first).
type runLoop struct {
	gen           *traffic.Generator
	sys           *coherence.System
	warmup, total int64
	measure       func(*noc.Packet)

	completed bool
	stall     *Stall
	// The stall watch's state: the ejections at its last check, the quiet
	// checks since, and whether the last check suspected deadlock.
	lastEject, quiet int64
	suspect          bool
}

// Stall is what a run's stall watch saw. The watch checks every
// watchEvery cycles; quietChecks checks in a row that see no ejection and
// a packet in the network make a quiet window (L1 hits are no progress,
// and an empty network no stall). It records the stall at the first
// quiet window, or where SchemeNone confirms a deadlock and stops the
// run: two checks in a row that see no ejection and a non-live link VC
// (HasDeadlock).
type Stall struct {
	Cycle      int64 // the network cycle it was recorded at
	Deadlocked bool  // SchemeNone confirmed a deadlock at Cycle
	// Quiet counts the run's quiet windows; Longest is its longest
	// stretch of checks without progress, in cycles.
	Quiet   int
	Longest int64
	// Why is Net.ExplainStall at cycle At: Cycle, or the run's end when
	// the run ended in a quiet window, still stalled.
	At  int64
	Why noc.Explanation
}

// Watch cadence: a check every watchEvery cycles, and a quiet window is
// quietChecks checks (8 192 cycles) without progress.
const watchEvery, quietChecks = 512, 16

// loop is the one cycle loop every run steps through, at most l.total
// iterations. Iteration cyc steps the clock from base+cyc to base+cyc+1,
// base being the clock at entry (nonzero for a reused runner). An
// iteration applies the faults that are due, ticks the generator unless
// the network is frozen, steps the network and the scheme, then ticks the
// coherence system (the run completes when it is Done) or sinks every
// ejection. Ejections are measured; the stall watch records l.stall (a
// SchemeNone run stops on a confirmed deadlock), a Runner.Probe sees
// every event (it may stop the run after an iteration), and the run is
// credited to ctx's Totals once.
func (r *Runner) loop(ctx context.Context, l *runLoop) error {
	base, counters := r.Net.Cycle(), r.Net.Counters
	pr := r.Probe
	defer func() {
		r.credit(ctx, base, counters)
		pr.emit(Event{Kind: EventRunEnd, Cycle: r.Net.Cycle()})
	}()
	measuring := l.warmup < 0
	r.Net.OnEject = func(p *noc.Packet) {
		if pr != nil {
			pr.emit(Event{Kind: EventEject, Cycle: p.EjectedAt, Packet: p})
		}
		if measuring {
			l.measure(p)
		}
	}
	defer func() { r.Net.OnEject = nil }()
	pr.begin(r)

	for cyc := int64(0); cyc < l.total && !pr.stopped(); cyc++ {
		// Scheduled faults fire first, before injection and Step, so an
		// event at cycle C reconfigures on the C→C+1 boundary.
		if err := r.applyDueFaults(); err != nil {
			return err
		}
		if pr != nil {
			pr.afterFaults(r)
		}
		if l.gen != nil && !r.Net.Frozen() {
			l.gen.Tick(r.Net)
		}
		if err := r.Net.StepContext(ctx); err != nil {
			return fmt.Errorf("sim: run cancelled at cycle %d: %w", r.Net.Cycle(), err)
		}
		if err := r.TickScheme(); err != nil {
			return err
		}
		if pr != nil {
			pr.afterScheme(r)
		}
		if cyc == l.warmup {
			measuring = true
		}
		if l.sys != nil {
			l.sys.Tick()
			if l.sys.Done() {
				l.completed = true
				break
			}
		} else {
			// Sink: consume every ejection queue (stats were already
			// taken by OnEject as the packets landed).
			r.Net.DiscardEjected()
		}
		if cyc%watchEvery == watchEvery-1 && l.watch(r, pr) {
			break
		}
	}
	if l.stall != nil && l.quiet >= quietChecks && l.stall.At != r.Net.Cycle() {
		l.explain(r) // still stalled: explain the state the run ends in
	}
	return nil
}

// watch is the stall watch's check, every watchEvery cycles: it counts
// quiet windows and reports whether a SchemeNone run must stop on a
// confirmed deadlock. The first quiet window, or the deadlock, records
// the stall, explained, and reports it to the probe.
func (l *runLoop) watch(r *Runner, pr *Probe) (stop bool) {
	ejected := r.Net.Counters.Ejected
	if l.quiet++; ejected != l.lastEject || r.Net.InFlightPackets() == 0 {
		l.quiet = 0
	}
	if r.Params.Scheme == SchemeNone {
		deadlock := ejected == l.lastEject && r.Net.HasDeadlock()
		stop, l.suspect = deadlock && l.suspect, deadlock
	}
	l.lastEject = ejected
	window := l.quiet > 0 && l.quiet%quietChecks == 0
	st, first := l.stall, l.stall == nil
	if first && !window && !stop {
		return stop
	}
	if first {
		st = &Stall{}
		l.stall = st
		defer pr.emit(Event{Kind: EventStall, Cycle: r.Net.Cycle(), Stall: st})
	}
	if window {
		st.Quiet++
	}
	st.Longest = max(st.Longest, l.quiet*watchEvery)
	if first || stop {
		l.explain(r)
		st.Cycle, st.Deadlocked = st.At, stop
	}
	return stop
}

// explain sets the stall's explanation to the network's state now.
func (l *runLoop) explain(r *Runner) {
	var c noc.Consumer
	if l.sys != nil {
		c = l.sys
	}
	l.stall.At, l.stall.Why = r.Net.Cycle(), r.Net.ExplainStall(c)
}

// AppResult summarizes a closed-loop coherence workload run.
type AppResult struct {
	Workload   string
	Completed  bool
	Runtime    int64 // cycles until every core hit its ops target
	AvgLatency float64
	P99Latency int64
	Protocol   coherence.Stats
	Counters   noc.Counters
	Drains     int64
	Spins      int64
	Stall      *Stall // what the stall watch saw; nil: no stall
}

// RunApp executes a coherence workload to completion (every core
// performs opsTarget memory operations) or until maxCycles.
func (r *Runner) RunApp(prof workload.Profile, opsTarget, maxCycles int64) (AppResult, error) {
	return r.RunAppContext(context.Background(), prof, opsTarget, maxCycles)
}

// RunAppContext is RunApp with cancellation: the step loop polls ctx
// every noc.CancelCheckEvery cycles and returns a cancellation error
// (wrapping ctx.Err()) within that cycle bound. With
// context.Background() the results are byte-identical to RunApp.
func (r *Runner) RunAppContext(ctx context.Context, prof workload.Profile, opsTarget, maxCycles int64) (AppResult, error) {
	res := AppResult{Workload: prof.Name}
	if r.Params.Classes < coherence.NumClasses {
		return res, fmt.Errorf("sim: coherence runs need Classes=3 (have %d)", r.Params.Classes)
	}
	if c := r.Params.InjectCap; 0 < c && c < 2 {
		// A FwdGetS/FwdGetM answer is a Data plus a DirAck, both
		// ClassResp, injected together: one slot can never admit the
		// pair, so the node's Forward queue would wait forever.
		return res, fmt.Errorf("sim: coherence runs need InjectCap 0 (unbounded) or >= 2 (have %d): a forward's answer injects two Response packets at once", c)
	}
	sys, err := coherence.New(r.Net, coherence.Config{
		Gen:       prof,
		OpsTarget: opsTarget,
		MSHRs:     r.Params.MSHRs,
		Seed:      r.Params.Seed ^ 0x517cc1b7,
	})
	if err != nil {
		return res, err
	}
	var lat stats.Sample
	l := runLoop{sys: sys, warmup: -1, total: maxCycles, measure: func(p *noc.Packet) { lat.Add(p.NetworkLatency()) }}
	if err := r.loop(ctx, &l); err != nil {
		return res, err
	}
	res.Completed, res.Stall = l.completed, l.stall
	res.Runtime = r.Net.Cycle()
	res.AvgLatency = lat.Mean()
	res.P99Latency = lat.P99()
	res.Protocol = sys.Stats()
	res.Counters = r.Net.Counters
	if r.Drain != nil {
		res.Drains = r.Drain.Stats().Drains
	}
	if r.Spin != nil {
		res.Spins = r.Spin.Stats().Spins
	}
	return res, nil
}
