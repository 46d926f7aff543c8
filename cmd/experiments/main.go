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
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"drain/internal/experiments"
)

// main defers to run so the profile-flushing defers fire before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "comma-separated experiment IDs (fig3..fig15, headline) or 'all'")
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	seed := fs.Uint64("seed", 1, "base random seed")
	out := fs.String("out", "", "directory to write per-figure markdown files (optional)")
	jsonOut := fs.String("json", "", "also write machine-readable results to this JSON file")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "run slots for independent simulation runs: this goroutine plus up to N-1 helpers (result tables are identical for any value)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	list := fs.Bool("list", false, "list available experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		fmt.Fprintf(stderr, "experiments: unknown scale %q\n", *scale)
		return 2
	}

	exps := experiments.All()
	if *fig != "all" {
		exps = nil
		for _, id := range strings.Split(*fig, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "experiments: unknown experiment %q (use -list)\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	}

	// Ctrl-C / SIGTERM cancels the in-flight sweep: the context reaches
	// every simulation step loop, so long full-scale runs stop within
	// noc.CancelCheckEvery cycles instead of burning cores. The run-slot
	// budget travels in the same context; this goroutine holds one slot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	slots := experiments.NewSlots(*parallel)
	slots.TryAcquire()
	ctx = experiments.WithSlots(ctx, slots)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
			}
		}()
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
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(ctx, sc, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s failed: %v\n", e.ID, err)
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
		fmt.Fprintln(stdout, b.String())
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
			path := filepath.Join(*out, e.ID+".md")
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(jsonEntries, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
