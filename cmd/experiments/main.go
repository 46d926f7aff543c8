// Command experiments regenerates the DRAIN paper's tables and figures.
//
// Usage:
//
//	experiments -fig all -scale quick
//	experiments -fig fig10,fig11 -scale full -seed 7 -out results/
//
// Each figure's data is printed as markdown and, with -out, also written
// to <out>/<fig>.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"drain/internal/experiments"
	"drain/internal/sim"
	"drain/internal/traffic"
)

// main defers to run so the profile-flushing defers fire before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.String("fig", "all", "comma-separated experiment IDs (fig3..fig15, headline) or 'all'")
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Uint64("seed", 1, "base random seed")
	out := flag.String("out", "", "directory to write per-figure markdown files (optional)")
	jsonOut := flag.String("json", "", "also write machine-readable results to this JSON file")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "run slots for independent simulation runs: this goroutine plus up to N-1 helpers (result tables are identical for any value)")
	rngMode := flag.String("rng-mode", "exact", "synthetic-traffic RNG discipline: exact (byte-reproducible) or counter (statistically equivalent, much faster at low load; changes result tables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	experiments.SetParallelism(*parallel)
	mode, err := traffic.ParseRNGMode(*rngMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: bad -rng-mode: %v\n", err)
		return 2
	}
	sim.SetDefaultRNGMode(mode)

	// Ctrl-C / SIGTERM cancels the in-flight sweep: the context reaches
	// every simulation step loop, so long full-scale runs stop within
	// noc.CancelCheckEvery cycles instead of burning cores.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}()
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scale)
		return 2
	}

	var ids []string
	if *fig == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*fig, ",")
	}

	type jsonEntry struct {
		ID      string              `json:"id"`
		Title   string              `json:"title"`
		Paper   string              `json:"paper"`
		Scale   string              `json:"scale"`
		Seed    uint64              `json:"seed"`
		Elapsed string              `json:"elapsed"`
		Tables  []experiments.Table `json:"tables"`
	}
	var jsonEntries []jsonEntry

	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		start := time.Now()
		tables, err := e.Run(ctx, sc, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
			failed++
			if ctx.Err() != nil {
				return 1 // interrupted: later figures would fail the same way
			}
			continue
		}
		jsonEntries = append(jsonEntries, jsonEntry{
			ID: e.ID, Title: e.Title, Paper: e.Paper,
			Scale: sc.String(), Seed: *seed,
			Elapsed: time.Since(start).Round(time.Millisecond).String(),
			Tables:  tables,
		})
		var b strings.Builder
		b.WriteString(experiments.RenderFigure(e, tables))
		fmt.Fprintf(&b, "_(scale=%v, seed=%d, took %v)_\n", sc, *seed, time.Since(start).Round(time.Millisecond))
		fmt.Println(b.String())
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			path := filepath.Join(*out, id+".md")
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(jsonEntries, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
