package main

import (
	"fmt"
	"reflect"
	"time"

	"drain/internal/coherence"
	"drain/internal/core"
	"drain/internal/noc"
	"drain/internal/sim"
	"drain/internal/spinrec"
	"drain/internal/stats"
	profiles "drain/internal/workload" // "workload" names the benchmark's own type here
)

// cohLeg is one scheme/provisioning point of fig12's equal-buffer trio:
// every input port has six VC buffers under each scheme. Escape VCs and
// SPIN need a virtual network per message class (VN3/VC2); DRAIN runs
// all three classes on one (VN1/VC6) and relies on its periodic full
// drains to clear protocol-level deadlocks, so about one drain round in
// twelve stalls for 18–103 drain windows before it completes, and about
// one in thirty does not complete within cohCycleCap at all (README,
// "Known hazards"). Both stay under the timer: see runRound.
type cohLeg struct {
	name   string // suffix of sim.app_ns_per_cycle_*
	scheme sim.Scheme
	vnets  int
	vcs    int
}

var cohTrio = [...]cohLeg{
	legEscape: {"escape", sim.SchemeEscapeVC, 3, 2},
	legSpin:   {"spin", sim.SchemeSPIN, 3, 2},
	legDrain:  {"drain", sim.SchemeDRAIN, 1, 6},
}

const (
	legEscape = iota
	legSpin
	legDrain
)

const (
	cohProfile = "pagerank"
	// cohCycleCap bounds one app run. A run that hits it did not
	// complete: its round is run again on another seed (runRound).
	cohCycleCap = 5_000_000
)

func (l cohLeg) params(seed uint64) sim.Params {
	return sim.Params{
		Width: meshSide, Height: meshSide, Scheme: l.scheme, Classes: coherence.NumClasses,
		VNets: l.vnets, VCsPerVN: l.vcs, Epoch: 8192, InjectCap: 16, Seed: seed,
	}
}

func digestApp(d *digest, leg string, res sim.AppResult) { d.addf("app %s %s", leg, appText(res)) }

func appText(res sim.AppResult) string {
	return fmt.Sprintf("completed=%v runtime=%d lat=%v p99=%d protocol=%v drains=%d spins=%d %s",
		res.Completed, res.Runtime, res.AvgLatency, res.P99Latency, res.Protocol, res.Drains, res.Spins, counterText(res.Counters))
}

// roundSeed is the simulation seed of round i: base+i, or for a round
// that did not complete on it, the try-th seed of a stream of its own.
func roundSeed(base uint64, i, try int) uint64 {
	seed := base + uint64(i)
	if try > 0 {
		seed = deriveSeed(seed, fmt.Sprintf("coh_pagerank/retry/%d", try))
	}
	return seed
}

// runRound is one operation: it runs trio(seed) — the three legs back to
// back — for round i and returns the seed it completed on. A leg that
// hits cohCycleCap cannot be a failed operation, because the benchmark's
// contract wants workloads on which none fails whatever -seed is, and
// cannot be dropped either, because the config is fig12's and the hazard
// is the simulator's: the round is run again on its next seed inside the
// same operation, so the capped attempt is paid for in that operation's
// time (a sample far above the median, like a stalled round) and named in
// a note of the run record. The round seeds stay a function of -seed.
func runRound(b *bench, base uint64, i int, trio func(seed uint64) (completed bool, err error)) (uint64, error) {
	for try := 0; ; try++ {
		seed := roundSeed(base, i, try)
		completed, err := trio(seed)
		if err != nil {
			return seed, err
		}
		if completed {
			return seed, nil
		}
		if try == maxRedraws {
			return seed, fmt.Errorf("round %d did not complete within %d cycles on %d seeds in a row", i, cohCycleCap, try+1)
		}
		b.note("round %d run again: on seed %d a leg did not complete within %d cycles", i, seed, cohCycleCap)
	}
}

// runCoherence times rounds; one round runs the trio back to back, each
// leg paying sim.Build and coherence.New as a user's run does. Round i
// uses seed base+i (roundSeed).
func runCoherence(w *workload, cfg runConfig, b *bench) error {
	prof, err := profiles.Get(cohProfile)
	if err != nil {
		return err
	}
	base := deriveSeed(cfg.seed, w.name+"/round")
	if cfg.traced {
		return traceCoherence(prof, base, cfg, b)
	}
	sz := cfg.sz
	// Set-up here is what each leg pays before its first cycle: the three
	// Builds and the three protocol constructions (L1 private regions
	// prewarmed). The rounds pay it again themselves; timing it alone
	// makes work moved into Build or New show.
	var setups []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		t0 := time.Now()
		for _, leg := range cohTrio {
			r, err := sim.Build(leg.params(base))
			if err != nil {
				return err
			}
			if _, err := coherence.New(r.Net, coherence.Config{Gen: prof, OpsTarget: sz.opsTarget, Seed: base}); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	results := make([][len(cohTrio)]sim.AppResult, sz.ops)
	run := timedOps(&b.chk, 1, sz.ops, func(_, i int) error {
		_, err := runRound(b, base, i, func(seed uint64) (bool, error) {
			for l, leg := range cohTrio {
				r, err := sim.Build(leg.params(seed))
				if err != nil {
					return false, err
				}
				res, err := r.RunApp(prof, sz.opsTarget, cohCycleCap)
				if err != nil {
					return false, err
				}
				results[i][l] = res
				if !res.Completed {
					return false, nil
				}
			}
			return true, nil
		})
		return err
	})
	for _, round := range results {
		for l, res := range round {
			digestApp(b.dig, cohTrio[l].name, res)
		}
	}
	b.endToEnd(setups, run)
	return nil
}

// tracedApp is one traced app run: the loop sim.RunAppContext runs,
// driven from here through exported calls.
type tracedApp struct {
	newSys                       int64 // ns inside coherence.New
	step, scheme, protocol       layerTime
	occupiedSum, occupiedSamples int64
	res                          sim.AppResult
	poolFree                     int
	drain                        core.Stats
	spin                         spinrec.Stats
}

func traceApp(tr *tracer, op, parent int, leg cohLeg, prof profiles.Profile, seed uint64, opsTarget int64) (tracedApp, error) {
	var a tracedApp
	t0 := tr.now()
	r, err := sim.Build(leg.params(seed))
	if err != nil {
		return a, err
	}
	t1 := tr.now()
	sys, err := coherence.New(r.Net, coherence.Config{
		Gen: prof, OpsTarget: opsTarget, MSHRs: r.Params.MSHRs, Seed: r.Params.Seed ^ coherenceSeedSalt,
	})
	if err != nil {
		return a, err
	}
	t2 := tr.now()
	net := r.Net
	var lat stats.Sample
	net.OnEject = func(p *noc.Packet) { lat.Add(p.NetworkLatency()) }
	for cyc := int64(0); cyc < cohCycleCap; cyc++ {
		c0 := tr.now()
		net.Step()
		c1 := tr.now()
		if err := r.TickScheme(); err != nil {
			return a, err
		}
		c2 := tr.now()
		sys.Tick()
		done := sys.Done()
		c3 := tr.now()
		a.step.add(c0, c1)
		a.scheme.add(c1, c2)
		a.protocol.add(c2, c3)
		if done {
			a.res.Completed = true
			break
		}
		if net.Cycle()%occupancyEvery == 0 {
			a.occupiedSum += int64(net.OccupiedVCs())
			a.occupiedSamples++
		}
	}
	t3 := tr.now()
	net.OnEject = nil
	a.newSys = t2 - t1
	a.res.Workload = prof.Name
	a.res.Runtime = net.Cycle()
	a.res.AvgLatency = lat.Mean()
	a.res.P99Latency = lat.P99()
	a.res.Protocol = sys.Stats()
	a.res.Counters = net.Counters
	a.poolFree = net.PoolFree()
	schemeSpan := "core.tick"
	if r.Drain != nil {
		a.drain = r.Drain.Stats()
		a.res.Drains = a.drain.Drains
	}
	if r.Spin != nil {
		schemeSpan = "spinrec.tick"
		a.spin = r.Spin.Stats()
		a.res.Spins = a.spin.Spins
	}
	root := tr.add("sim.app."+leg.name, op, parent, t0, t3, t3-t0, 1)
	tr.call("sim.build", op, root, t0, t1)
	tr.call("coherence.new", op, root, t1, t2)
	a.step.flush(tr, "noc.step", op, root, t2, t3)
	if leg.scheme != sim.SchemeEscapeVC {
		a.scheme.flush(tr, schemeSpan, op, root, t2, t3)
	}
	a.protocol.flush(tr, "coherence.tick", op, root, t2, t3)
	return a, nil
}

// traceCoherence runs each round twice: the trio through sim.RunApp
// (reference, untraced), then through the traced loop on identically
// built runners. Leg by leg the two must agree on the whole AppResult.
func traceCoherence(prof profiles.Profile, base uint64, cfg runConfig, b *bench) error {
	sz := cfg.sz
	drainLeg := cohTrio[legDrain]
	probeRunner, err := sim.Build(drainLeg.params(base))
	if err != nil {
		return err
	}
	if err := probeLayers(b, drainLeg.params(base), probeRunner); err != nil {
		return err
	}

	type round struct {
		refNs, refLoopNs, refCycles int64
		legNsPerCycle               [len(cohTrio)]float64 // reference Build+RunApp ns per cycle, by leg
		tracedNs                    int64
		legs                        [len(cohTrio)]tracedApp
	}
	rounds := make([]round, 0, sz.ops)
	var counts noc.Counters
	var protocol coherence.Stats
	var drain core.Stats
	var spin spinrec.Stats
	poolFree := 0
	host := readHost()
	timedOps(&b.chk, 1, sz.ops, func(_, i int) error {
		var rd round
		var refs [len(cohTrio)]sim.AppResult
		seed, err := runRound(b, base, i, func(seed uint64) (bool, error) {
			rd = round{}
			for l, leg := range cohTrio {
				t0 := time.Now()
				r, err := sim.Build(leg.params(seed))
				if err != nil {
					return false, err
				}
				t1 := time.Now()
				res, err := r.RunApp(prof, sz.opsTarget, cohCycleCap)
				if err != nil {
					return false, err
				}
				t2 := time.Now()
				if !res.Completed {
					return false, nil
				}
				refs[l] = res
				rd.refNs += int64(t2.Sub(t0))
				rd.refLoopNs += int64(t2.Sub(t1))
				rd.refCycles += res.Runtime
				rd.legNsPerCycle[l] = float64(t2.Sub(t0)) / float64(res.Runtime)
			}
			return true, nil
		})
		if err != nil {
			return err
		}
		start := b.tr.now()
		root := b.tr.add("round", i, -1, start, start, 0, 1)
		for l, leg := range cohTrio {
			a, err := traceApp(b.tr, i, root, leg, prof, seed, sz.opsTarget)
			if err != nil {
				return err
			}
			rd.legs[l] = a
			b.chk.check(appText(refs[l]) == appText(a.res), "round %d %s: traced loop diverged from sim.RunApp:\n  want %s\n  got  %s",
				i, leg.name, appText(refs[l]), appText(a.res))
			digestApp(b.dig, leg.name, a.res)
			addCounters(&counts, a.res.Counters)
			addProtocol(&protocol, a.res.Protocol)
			poolFree += a.poolFree
		}
		end := b.tr.now()
		b.tr.spans[root].End, b.tr.spans[root].Busy = end, end-start
		rd.tracedNs = end - start
		d, s := rd.legs[legDrain].drain, rd.legs[legSpin].spin
		drain.Drains += d.Drains
		drain.FullDrains += d.FullDrains
		drain.PacketsMoved += d.PacketsMoved
		spin.Checks += s.Checks
		spin.Detections += s.Detections
		spin.Spins += s.Spins
		spin.Probes += s.Probes
		rounds = append(rounds, rd)
		return nil
	})
	used := host.since()
	b.ops = sz.ops
	n := len(rounds)
	if n == 0 {
		return fmt.Errorf("no round completed")
	}

	setNetworkCounts(b, counts, poolFree)
	setDrainCounts(b, drain)
	b.set("spinrec.checks", float64(spin.Checks), n, "count")
	b.set("spinrec.detections", float64(spin.Detections), n, "count")
	b.set("spinrec.spins", float64(spin.Spins), n, "count")
	b.set("spinrec.probes", float64(spin.Probes), n, "count")
	b.set("coherence.msgs_sent", float64(protocol.MsgsSent), n, "count")
	b.set("coherence.ops_completed", float64(protocol.OpsCompleted), n, "count")
	b.set("coherence.tx_completed", float64(protocol.TxCompleted), n, "count")
	b.set("coherence.hit_ratio", ratio(float64(protocol.Hits), float64(protocol.Hits+protocol.Misses)), n, "mean")
	b.set("coherence.blocked_cycles", float64(protocol.BlockedCyc), n, "count")
	b.set("routing.tables_built", float64(len(cohTrio)*n), n, "count")

	// over reduces a per-round quantity to its median across rounds.
	over := func(f func(rd *round) float64) float64 {
		out := make([]float64, n)
		for i := range rounds {
			out[i] = f(&rounds[i])
		}
		return median(out)
	}
	trio := func(rd *round, f func(a *tracedApp) int64) (sum int64) {
		for l := range rd.legs {
			sum += f(&rd.legs[l])
		}
		return sum
	}
	cyclesOf := func(rd *round) float64 { return float64(rd.refCycles) }
	stepBusy := func(a *tracedApp) int64 { return a.step.busy }
	protoBusy := func(a *tracedApp) int64 { return a.protocol.busy }
	b.set("noc.step_ns_per_cycle", over(func(rd *round) float64 { return float64(trio(rd, stepBusy)) / cyclesOf(rd) }), n, "p50")
	b.set("noc.step_share", over(func(rd *round) float64 { return float64(trio(rd, stepBusy)) / float64(rd.tracedNs) }), n, "p50")
	b.set("coherence.tick_ns_per_cycle", over(func(rd *round) float64 { return float64(trio(rd, protoBusy)) / cyclesOf(rd) }), n, "p50")
	b.set("coherence.tick_share", over(func(rd *round) float64 { return float64(trio(rd, protoBusy)) / float64(rd.tracedNs) }), n, "p50")
	b.set("core.tick_ns_per_cycle", over(func(rd *round) float64 {
		return float64(rd.legs[legDrain].scheme.busy) / float64(rd.legs[legDrain].res.Runtime)
	}), n, "p50")
	b.set("spinrec.tick_ns_per_cycle", over(func(rd *round) float64 {
		return float64(rd.legs[legSpin].scheme.busy) / float64(rd.legs[legSpin].res.Runtime)
	}), n, "p50")
	b.set("coherence.new_us", over(func(rd *round) float64 {
		return float64(trio(rd, func(a *tracedApp) int64 { return a.newSys })) / 1e3 / float64(len(cohTrio))
	}), n, "p50")
	for l, leg := range cohTrio {
		b.set("sim.app_ns_per_cycle_"+leg.name, over(func(rd *round) float64 { return rd.legNsPerCycle[l] }), n, "p50")
	}
	// RunApp covers coherence.New and the loop, so its children are New,
	// Step, the scheme tick and the protocol tick. Reference and traced
	// rounds alternate; differences are taken round by round.
	b.set("sim.loop_overhead_ns_per_cycle", over(func(rd *round) float64 {
		children := trio(rd, func(a *tracedApp) int64 { return a.newSys + a.step.busy + a.scheme.busy + a.protocol.busy })
		return float64(rd.refLoopNs-children) / cyclesOf(rd)
	}), n, "p50")
	b.set("trace.overhead_share", over(func(rd *round) float64 { return float64(rd.tracedNs-rd.refNs) / float64(rd.refNs) }), n, "p50")
	refPerCycle := make([]float64, n)
	var hops, occupiedSum, occupiedSamples, stepTotal, cycles int64
	for i := range rounds {
		rd := &rounds[i]
		refPerCycle[i] = float64(rd.refNs) / cyclesOf(rd)
		cycles += 2 * rd.refCycles
		for l := range rd.legs {
			a := &rd.legs[l]
			hops += a.res.Counters.Hops
			stepTotal += a.step.busy
			occupiedSum += a.occupiedSum
			occupiedSamples += a.occupiedSamples
		}
	}
	hi, label := tail(refPerCycle)
	b.set("sim.window_ns_per_cycle_hi", hi, n, label)
	b.set("noc.step_ns_per_hop", ratio(float64(stepTotal), float64(hops)), int(hops), "mean")
	b.set("noc.occupied_vcs_avg", ratio(float64(occupiedSum), float64(occupiedSamples)), int(occupiedSamples), "mean")
	setHost(b, used, float64(cycles), 0)
	return nil
}

// addCounters adds every exported scalar count of src into dst.
func addCounters(dst *noc.Counters, src noc.Counters) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < s.NumField(); i++ {
		if f := s.Type().Field(i); f.IsExported() && f.Type.Kind() == reflect.Int64 {
			d.Field(i).SetInt(d.Field(i).Int() + s.Field(i).Int())
		}
	}
}

func addProtocol(dst *coherence.Stats, src coherence.Stats) {
	dst.OpsCompleted += src.OpsCompleted
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.TxCompleted += src.TxCompleted
	dst.BlockedCyc += src.BlockedCyc
	dst.MsgsSent += src.MsgsSent
}
