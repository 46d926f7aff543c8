// Command drainvet runs the simulator's custom static analysis (see
// internal/lint): four analyzers that enforce the determinism, hot-path
// allocation and cancellation invariants the DRAIN evaluation depends
// on. It is wired into `make check` and CI; a finding fails the build.
//
// Usage:
//
//	drainvet [-C dir] [-detpkgs list] [packages]
//
// Packages default to ./... . Findings print, sorted by position, as
//
//	file:line: [analyzer] message
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"drain/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drainvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("C", "", "change to `dir` before resolving package patterns")
		detPkgs = fs.String("detpkgs", "", "comma-separated import-path suffixes overriding the deterministic-package scope (maprange/nondet)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := lint.DefaultConfig()
	if *detPkgs != "" {
		cfg.DeterministicPkgs = splitList(*detPkgs)
	}

	pkgs, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "drainvet: %v\n", err)
		return 2
	}
	findings := lint.Analyze(cfg, pkgs)
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "drainvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
