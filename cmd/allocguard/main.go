// Command allocguard enforces the committed per-benchmark allocation
// budget: it reads `go test -bench -benchmem` output on stdin, extracts
// each benchmark's allocs/op, and fails when any budgeted benchmark
// exceeds its ceiling in alloc_budget.json — or is missing from the
// input, so a renamed benchmark cannot silently retire its budget.
//
// Allocation counts, unlike timings, are exact and machine-independent:
// the runtime counts every heap allocation, so the same binary produces
// the same allocs/op on a loaded CI runner and a quiet workstation.
// That makes them the one hot-path regression signal CI can gate on.
// The budgets are calibrated at -benchtime=10x (fixed iteration counts
// keep the per-op amortization of warm-up allocations stable) with
// roughly 3x headroom over the measured values; the pre-pooling
// simulator exceeded every one of them by two to three orders of
// magnitude.
//
// Usage: go test -bench=... -benchmem . | allocguard -budget alloc_budget.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// budgetFile is the alloc_budget.json schema: benchmark name (with
// sub-benchmark path, without the -GOMAXPROCS suffix) to the maximum
// permitted allocs/op.
type budgetFile struct {
	Comment string             `json:"comment,omitempty"`
	Budgets map[string]float64 `json:"budgets"`
}

func main() {
	budgetPath := flag.String("budget", "alloc_budget.json", "committed allocation budget file")
	flag.Parse()

	data, err := os.ReadFile(*budgetPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "allocguard:", err)
		os.Exit(1)
	}
	if err := run(data, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "allocguard:", err)
		os.Exit(1)
	}
}

// run checks the benchmark stream against the budget document and
// reports every violation (not just the first).
func run(budget []byte, bench io.Reader, out io.Writer) error {
	var bf budgetFile
	if err := json.Unmarshal(budget, &bf); err != nil {
		return fmt.Errorf("budget file: %w", err)
	}
	if len(bf.Budgets) == 0 {
		return fmt.Errorf("budget file defines no budgets")
	}
	got, err := parseAllocs(bench)
	if err != nil {
		return err
	}
	var failures []string
	names := make([]string, 0, len(bf.Budgets))
	for name := range bf.Budgets {
		names = append(names, name)
	}
	// Deterministic report order regardless of map iteration.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		max := bf.Budgets[name]
		v, ok := got[name]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: budgeted benchmark missing from input (renamed or not run?)", name))
		case v > max:
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op exceeds budget %.0f", name, v, max))
		default:
			fmt.Fprintf(out, "allocguard: %s: %.0f allocs/op within budget %.0f\n", name, v, max)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget exceeded:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// parseAllocs extracts allocs/op from benchstat-compatible lines,
// stripping the trailing -GOMAXPROCS decoration. Benchmarks without an
// allocs/op column are ignored.
func parseAllocs(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > strings.LastIndexByte(name, '/') {
			name = name[:i]
		}
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] != "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			out[name] = v
		}
	}
	return out, sc.Err()
}
