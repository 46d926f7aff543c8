package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// allOptions configures the all-workloads mode.
type allOptions struct {
	seed    uint64
	seconds float64
	runs    int
	out     string
}

// environment stamps a result file with what the numbers depend on. A
// dirty tree is stamped, not refused: the pipeline may run on an
// uncommitted tree.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GitSHA     string  `json:"git_sha"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
}

// resultFile is what -out writes and -compare reads: the stamp and one
// record per (workload, seed, pass). Each record carries the operation
// counts actually run.
type resultFile struct {
	Env     environment `json:"env"`
	Records []record    `json:"records"`
}

func stampEnvironment(o allOptions) environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown", GitSHA: "unknown",
		Seed: o.seed, Seconds: o.seconds, Runs: o.runs,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	// Outside a git checkout both commands fail and the stamp says so.
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(sha))
		if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env.Dirty = len(bytes.TrimSpace(status)) > 0
		}
	}
	return env
}

// runAll runs every workload in a fresh child process — so peak memory
// and GC state are per workload — untraced for the end-to-end metrics,
// then traced, at a quarter of the operations, for the per-layer
// metrics. It reports false when any run failed a check.
func runAll(stdout, stderr io.Writer, o allOptions) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Env: stampEnvironment(o)}
	ok := true
	for _, w := range workloads {
		for i := 0; i < o.runs; i++ {
			for trace := 0; trace <= 1; trace++ {
				rec, err := runChild(self, stderr, w.name, o.seed+uint64(i), o.seconds, trace)
				if err != nil {
					return false, err
				}
				printRecord(stdout, rec)
				ok = ok && rec.Correct
				file.Records = append(file.Records, *rec)
			}
		}
	}
	if o.runs > 1 {
		spec, err := loadSpec()
		if err != nil {
			return false, err
		}
		printSpreads(stdout, spec, file.Records)
	}
	if o.out != "" {
		if err := writeJSONFile(o.out, file); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// runChild re-executes this binary for one run and decodes the record
// on the last line of its output. A child exits 1 when a check failed;
// its record still says which.
func runChild(self string, stderr io.Writer, name string, seed uint64, seconds float64, trace int) (*record, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-detail")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rec record
	if jsonErr := json.Unmarshal(lines[len(lines)-1], &rec); jsonErr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
		}
		return nil, fmt.Errorf("%s seed %d trace %d: no record on the last line: %w", name, seed, trace, jsonErr)
	}
	return &rec, nil
}

// printSpreads lists, per workload and end-to-end metric, the median
// over the runs and the spread the benchmark's acceptance uses: the
// distance between the first and third quartile as a share of the
// median, beside the metric's bound.
func printSpreads(w io.Writer, spec *benchSpec, records []record) {
	fmt.Fprintln(w, "spread of the end-to-end metrics over the runs (q3-q1 as a share of the median):")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			var vals []float64
			for _, r := range records {
				if v, ok := r.Metrics[m.Name]; ok && r.Workload == wl.name && !r.Traced {
					vals = append(vals, v.Value)
				}
			}
			q1, q2, q3 := quartiles(vals)
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			fmt.Fprintf(w, "  %-16s %-14s median %14.6g %-4s spread %.4f bound %.2f n=%d\n",
				wl.name, m.Name, q2, m.Unit, ratio(q3-q1, q2), bound, len(vals))
		}
	}
}
