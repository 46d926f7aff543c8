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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"drain/internal/sim"
	"drain/internal/traffic"
	"drain/internal/workload"
)

func main() {
	scheme := flag.String("scheme", "drain", "deadlock-freedom scheme: none, ideal, escape, spin, drain, updown, dor")
	mesh := flag.String("mesh", "8x8", "mesh dimensions WxH")
	faults := flag.Int("faults", 0, "random bidirectional link failures (connectivity preserved)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault pattern seed")
	faultSchedule := flag.String("fault-schedule", "", "scheduled live link failures/recoveries, e.g. \"1000:fail:2-3,3000:recover:2-3\" (cycle:action:a-b, comma-separated)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	pattern := flag.String("pattern", "uniform", "synthetic traffic pattern")
	rate := flag.Float64("rate", 0.05, "offered load, packets/node/cycle")
	warmup := flag.Int64("warmup", 10_000, "warmup cycles")
	measure := flag.Int64("measure", 50_000, "measurement cycles")
	epoch := flag.Int64("epoch", 64*1024, "DRAIN drain epoch (cycles)")
	wl := flag.String("workload", "", "run a coherence workload instead of synthetic traffic")
	ops := flag.Int64("ops", 500, "memory operations per core for -workload runs")
	maxCycles := flag.Int64("max-cycles", 5_000_000, "cycle budget for -workload runs")
	tracePath := flag.String("trace", "", "write a per-packet CSV trace to this file")
	sweep := flag.String("sweep", "", "comma-separated offered loads for a latency/throughput sweep (overrides -rate)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		atExit = append(atExit, pprof.StopCPUProfile)
	}
	if *memProfile != "" {
		path := *memProfile
		atExit = append(atExit, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "drainsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "drainsim:", err)
			}
		})
	}
	defer runAtExit()

	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		fatal(err)
	}
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil {
		fatal(fmt.Errorf("bad -mesh %q: %v", *mesh, err))
	}
	sched, err := sim.ParseFaultSchedule(*faultSchedule)
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r.Trace = f
	}
	fmt.Printf("topology: %dx%d mesh, %d faults, %d routers, %d links, diameter %d\n",
		w, h, *faults, r.Graph.N(), r.Graph.NumLinks(), r.Graph.Diameter())
	fmt.Printf("scheme: %v (VNets=%d, VCs/VNet=%d)\n",
		sch, r.Net.Config().VNets, r.Net.Config().VCsPerVN)

	if *wl != "" {
		prof, err := workload.Get(*wl)
		if err != nil {
			fatal(err)
		}
		res, err := r.RunApp(prof, *ops, *maxCycles)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload %s: completed=%v runtime=%d cycles\n", prof, res.Completed, res.Runtime)
		fmt.Printf("packet latency: avg=%.1f p99=%d\n", res.AvgLatency, res.P99Latency)
		fmt.Printf("protocol: issued=%d completed=%d hits=%d misses=%d messages=%d\n",
			res.Protocol.OpsIssued, res.Protocol.OpsCompleted,
			res.Protocol.Hits, res.Protocol.Misses, res.Protocol.MsgsSent)
		if res.Drains > 0 {
			fmt.Printf("drains: %d\n", res.Drains)
		}
		if res.Spins > 0 {
			fmt.Printf("spins: %d\n", res.Spins)
		}
		if res.Deadlocked {
			fmt.Printf("DEADLOCKED at cycle %d\n", res.DeadlockCycle)
		}
		return
	}

	if *sweep != "" {
		var rates []float64
		for _, s := range strings.Split(*sweep, ",") {
			var v float64
			if _, err := fmt.Sscan(strings.TrimSpace(s), &v); err != nil {
				fatal(fmt.Errorf("bad -sweep entry %q: %v", s, err))
			}
			rates = append(rates, v)
		}
		curve, err := sim.LoadSweep(p, *pattern, rates, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%10s %10s %12s %8s\n", "offered", "accepted", "avg latency", "p99")
		for _, pt := range curve {
			fmt.Printf("%10.3f %10.4f %12.1f %8d\n", pt.Offered, pt.Accepted, pt.AvgLat, pt.P99Lat)
		}
		fmt.Printf("saturation throughput: %.4f packets/node/cycle\n", curve.Saturation())
		return
	}

	pat, err := traffic.ByName(*pattern, r.Graph.N(), w)
	if err != nil {
		fatal(err)
	}
	res, err := r.RunSynthetic(pat, *rate, *warmup, *measure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("traffic: %s at %.3f packets/node/cycle\n", pat.Name(), *rate)
	fmt.Printf("fast-forwarded: %d cycles\n", res.FastForwarded)
	fmt.Printf("accepted: %.4f packets/node/cycle\n", res.Accepted)
	fmt.Printf("latency: avg=%.1f p99=%d cycles\n", res.AvgLatency, res.P99Latency)
	fmt.Printf("hops: avg=%.2f, misroutes/1k packets: %.1f\n", res.AvgHops, res.MisroutesPerK)
	if res.Deadlocked {
		fmt.Printf("DEADLOCKED at cycle %d\n", res.DeadlockCycle)
	}
	if r.Drain != nil {
		st := r.Drain.Stats()
		fmt.Printf("drains: %d (%d full), %d packet-hops forced, %d drain-ejections\n",
			st.Drains, st.FullDrains, st.PacketsMoved, st.Ejections)
	}
	if r.Spin != nil {
		st := r.Spin.Stats()
		fmt.Printf("spins: %d detections, %d spins, %d probes\n", st.Detections, st.Spins, st.Probes)
	}
	if len(r.FaultReports) > 0 {
		var rerouted, dropped int
		for _, rep := range r.FaultReports {
			rerouted += rep.Rerouted
			dropped += rep.Dropped
		}
		fmt.Printf("reconfigurations: %d (%d packets rerouted, %d dropped)\n",
			len(r.FaultReports), rerouted, dropped)
	}
}

// atExit holds profile-flushing hooks; fatal runs them before exiting
// (os.Exit skips deferred calls) and main defers runAtExit for the
// normal-return path.
var atExit []func()

func runAtExit() {
	for i := len(atExit) - 1; i >= 0; i-- {
		atExit[i]()
	}
	atExit = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drainsim:", err)
	runAtExit()
	os.Exit(1)
}
