// Command drainbench is the repo's one benchmark: it times the whole
// path a user pays for — drainserved request → canonicalize → queue →
// sim.Run* → noc.Step → render → cache — on six named workloads, and in
// a separate traced pass attributes that time to the layers (the repo's
// packages) by timing calls into their exported functions from outside.
// BENCHMARK.json at the repo root is its contract; README.md in this
// directory explains every workload and metric.
//
//	go run ./cmd/drainbench                      # all workloads, untraced then traced at a quarter of the work
//	go run ./cmd/drainbench -runs 10 -out a.json # ten seeds per workload, result file
//	go run ./cmd/drainbench -workload synth_sat -seed 3 -seconds 10 -trace 0
//	go run ./cmd/drainbench -compare a.json b.json
//
// With -workload the program is one measurement run: it prints the
// metrics and, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics.
//
// Every timing is host time. Simulated statistics are deterministic for
// a fixed seed and are used only as exact-repeat counts and for
// verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program with its edges injected so the smoke test
// can drive it. Exit codes: 0 success, 1 a run or verification failed,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drainbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run in this process; \"all\" runs each one in a fresh child process, untraced then traced")
	seed := fs.Uint64("seed", 1, "derives every generated input (traffic seed, fault links, request seeds, key order)")
	seconds := fs.Float64("seconds", defaultSeconds, "sizes the fixed work: every operation count is its default times seconds/10, so the timed part takes about this long on the box the defaults were sized on")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the externally driven, traced loop")
	detail := fs.Bool("detail", false, "print the full run record (sample counts, digest, failures) as the last line instead of the four-key result")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, run i using seed+i")
	out := fs.String("out", "", "with -workload all: write the result file (environment stamp + every run record) here")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans as JSON here")
	compare := fs.Bool("compare", false, "compare two result files: drainbench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "drainbench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "drainbench: -compare needs two result files")
			return 2
		}
		spec, err := loadSpec()
		if err != nil {
			return fail(err)
		}
		regressed, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "drainbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "drainbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "drainbench: -seconds must be positive")
		return 2
	}

	if *name == "all" {
		ok, err := runAll(stdout, stderr, allOptions{seed: *seed, seconds: *seconds, runs: *runs, out: *out})
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "drainbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	cfg := runConfig{seed: *seed, traced: *traced == 1, sz: w.sizes.forRun(*seconds, *traced == 1)}
	rec, spans, err := runWorkload(spec, w, cfg)
	if err != nil {
		return fail(err)
	}
	if *traceOut != "" {
		if err := writeJSONFile(*traceOut, spans); err != nil {
			return fail(err)
		}
	}
	printRecord(stdout, rec)
	var line []byte
	if *detail {
		line, err = json.Marshal(rec)
	} else {
		line, err = json.Marshal(rec.result())
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}
