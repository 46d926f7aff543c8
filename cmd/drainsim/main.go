// Command drainsim runs one network simulation and prints its results.
//
// Synthetic traffic:
//
//	drainsim -scheme drain -mesh 8x8 -faults 4 -pattern uniform -rate 0.1
//
// Coherence workload:
//
//	drainsim -scheme drain -mesh 4x4 -workload canneal -ops 500
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"drain/internal/experiments"
	"drain/internal/sim"
	"drain/internal/traffic"
	"drain/internal/workload"
)

// main defers to run so the profile-flushing defers fire before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("drainsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scheme := fs.String("scheme", "drain", "deadlock-freedom scheme: none, ideal, escape, spin, drain, updown, dor")
	mesh := fs.String("mesh", "8x8", "mesh dimensions WxH")
	faults := fs.Int("faults", 0, "random bidirectional link failures (connectivity preserved)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault pattern seed")
	faultSchedule := fs.String("fault-schedule", "", "scheduled live link failures/recoveries, e.g. \"1000:fail:2-3,3000:recover:2-3\" (cycle:action:a-b, comma-separated)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	pattern := fs.String("pattern", "uniform", "synthetic traffic pattern")
	rate := fs.Float64("rate", 0.05, "offered load, packets/node/cycle")
	warmup := fs.Int64("warmup", 10_000, "warmup cycles")
	measure := fs.Int64("measure", 50_000, "measurement cycles")
	epoch := fs.Int64("epoch", 64*1024, "DRAIN drain epoch (cycles)")
	wl := fs.String("workload", "", "run a coherence workload instead of synthetic traffic")
	ops := fs.Int64("ops", 500, "memory operations per core for -workload runs")
	maxCycles := fs.Int64("max-cycles", 5_000_000, "cycle budget for -workload runs")
	tracePath := fs.String("trace", "", "write the run's events (ejections, drain windows, spins, faults, run end) to this file as JSON lines (not with -sweep)")
	sweep := fs.String("sweep", "", "comma-separated offered loads for a latency/throughput sweep (overrides -rate; not with -trace or -workload)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sweep != "" && (*tracePath != "" || *wl != "") {
		// A sweep's runners never see r.Probe, and a workload is not swept.
		fmt.Fprintln(stderr, "drainsim: -sweep cannot be combined with -trace or -workload")
		return 2
	}
	// Every value is checked before anything is built or printed, by the
	// server's sweep rules: a run simulates what it was given or nothing.
	ws, hs, _ := strings.Cut(strings.ToLower(*mesh), "x")
	w, errW := strconv.Atoi(ws)
	h, errH := strconv.Atoi(hs)
	var rates []float64
	badRate := !(*rate > 0 && *rate <= 1)
	if *sweep != "" {
		for _, f := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			badRate = badRate || err != nil || !(v > 0 && v <= 1)
			rates = append(rates, v)
		}
	}
	for _, c := range []struct {
		bad bool
		why string
	}{
		{errW != nil || errH != nil || w < 1 || h < 1, fmt.Sprintf("bad -mesh %q: want WxH, both sides >= 1", *mesh)},
		{badRate, "every -rate and -sweep rate must be a number in (0, 1]"},
		{*warmup < 0 || *faults < 0, "-warmup and -faults must be >= 0"},
		{*measure < 1 || *epoch < 1, "-measure and -epoch must be >= 1"},
		{*wl != "" && (*ops < 1 || *maxCycles < 1), "-ops and -max-cycles must be >= 1 with -workload"},
	} {
		if c.bad {
			fmt.Fprintln(stderr, "drainsim:", c.why)
			return 2
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "drainsim:", err)
		return 1
	}

	// Ctrl-C / SIGTERM cancels the run: the step loop stops within
	// noc.CancelCheckEvery cycles and the deferred profile writers below
	// still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		return fail(err)
	}
	sched, err := sim.ParseFaultSchedule(*faultSchedule)
	if err != nil {
		return fail(err)
	}
	p := sim.Params{
		Width: w, Height: h,
		Faults: *faults, FaultSeed: *faultSeed,
		Scheme: sch, Epoch: *epoch, Seed: *seed,
		FaultSchedule: sched,
	}
	if *wl != "" {
		p.Classes = 3
		p.InjectCap = 16
	}
	r, err := sim.Build(p)
	if err != nil {
		return fail(err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		w := bufio.NewWriter(f)
		defer func() {
			if err := errors.Join(w.Flush(), f.Close()); err != nil && code == 0 {
				code = fail(err)
			}
		}()
		// A write error sticks in w and surfaces at Flush.
		enc := json.NewEncoder(w)
		r.Probe = &sim.Probe{OnEvent: func(e sim.Event) bool {
			_ = enc.Encode(e)
			return false
		}}
	}
	fmt.Fprintf(stdout, "topology: %dx%d mesh, %d faults, %d routers, %d links, diameter %d\n",
		w, h, *faults, r.Graph.N(), r.Graph.NumLinks(), r.Graph.Diameter())
	fmt.Fprintf(stdout, "scheme: %v (VNets=%d, VCs/VNet=%d)\n",
		sch, r.Net.Config().VNets, r.Net.Config().VCsPerVN)

	if *wl != "" {
		prof, err := workload.Get(*wl)
		if err != nil {
			return fail(err)
		}
		res, err := r.RunAppContext(ctx, prof, *ops, *maxCycles)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "workload %s: completed=%v runtime=%d cycles\n", prof, res.Completed, res.Runtime)
		fmt.Fprintf(stdout, "packet latency: avg=%.1f p99=%d\n", res.AvgLatency, res.P99Latency)
		fmt.Fprintf(stdout, "protocol: issued=%d completed=%d hits=%d misses=%d messages=%d\n",
			res.Protocol.OpsIssued, res.Protocol.OpsCompleted,
			res.Protocol.Hits, res.Protocol.Misses, res.Protocol.MsgsSent)
		if res.Drains > 0 {
			fmt.Fprintf(stdout, "drains: %d\n", res.Drains)
		}
		if res.Spins > 0 {
			fmt.Fprintf(stdout, "spins: %d\n", res.Spins)
		}
		printStall(stdout, res.Stall)
		return 0
	}

	if *sweep != "" {
		// The rates share this process's CPUs, one run slot each, as
		// cmd/experiments' figures do by default.
		slots := experiments.NewSlots(runtime.GOMAXPROCS(0))
		slots.TryAcquire()
		curve, err := experiments.LoadSweep(experiments.WithSlots(ctx, slots), p, *pattern, rates, *warmup, *measure)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%10s %10s %12s %8s\n", "offered", "accepted", "avg latency", "p99")
		for _, pt := range curve {
			fmt.Fprintf(stdout, "%10.3f %10.4f %12.1f %8d\n", pt.Offered, pt.Accepted, pt.AvgLat, pt.P99Lat)
		}
		fmt.Fprintf(stdout, "saturation throughput: %.4f packets/node/cycle\n", curve.Saturation())
		return 0
	}

	pat, err := traffic.ByName(*pattern, r.Graph.N(), w)
	if err != nil {
		return fail(err)
	}
	res, err := r.RunSyntheticContext(ctx, pat, *rate, *warmup, *measure)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "traffic: %s at %.3f packets/node/cycle\n", pat.Name(), *rate)
	fmt.Fprintf(stdout, "accepted: %.4f packets/node/cycle\n", res.Accepted)
	fmt.Fprintf(stdout, "latency: avg=%.1f p99=%d cycles\n", res.AvgLatency, res.P99Latency)
	fmt.Fprintf(stdout, "hops: avg=%.2f, misroutes/1k packets: %.1f\n", res.AvgHops, res.MisroutesPerK)
	printStall(stdout, res.Stall)
	if r.Drain != nil {
		st := r.Drain.Stats()
		fmt.Fprintf(stdout, "drains: %d (%d full), %d packet-hops forced, %d drain-ejections\n",
			st.Drains, st.FullDrains, st.PacketsMoved, st.Ejections)
	}
	if r.Spin != nil {
		st := r.Spin.Stats()
		fmt.Fprintf(stdout, "spins: %d detections, %d spins, %d probes\n", st.Detections, st.Spins, st.Probes)
	}
	if c := res.Counters; c.Reconfigs > 0 {
		fmt.Fprintf(stdout, "reconfigurations: %d (%d packets rerouted, %d dropped)\n",
			c.Reconfigs, c.FaultReroutes, c.FaultDrops)
	}
	return 0
}

// printStall prints what a run's stall watch recorded, if anything: the
// deadlock or the quiet windows, the blocked walk ExplainStall named,
// and the oldest and most-hopped packets in the network.
func printStall(w io.Writer, st *sim.Stall) {
	if st == nil {
		return
	}
	if st.Deadlocked {
		fmt.Fprintf(w, "DEADLOCKED at cycle %d\n", st.Cycle)
	} else {
		fmt.Fprintf(w, "stalled from cycle %d: %d quiet windows, the longest %d cycles\n", st.Cycle, st.Quiet, st.Longest)
	}
	x := st.Why
	fmt.Fprintf(w, "stall at cycle %d: %v; each node waits on the next", st.At, x.Kind)
	if x.Loop >= 0 {
		fmt.Fprintf(w, ", the last on #%d", x.Loop)
	}
	fmt.Fprintln(w)
	for i, nd := range x.Nodes {
		fmt.Fprintf(w, "  #%d %v\n", i, nd)
	}
	if x.Oldest.Kind != 0 {
		fmt.Fprintf(w, "oldest packet: %v\nmost hops: %v\n", x.Oldest, x.MostHops)
	}
}
