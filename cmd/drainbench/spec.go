package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json at the repo root. The file is the
// contract and the one place that names workloads and metrics with
// their reasons, units, directions and bounds: the program reads it for
// the units it reports and the bounds -compare applies, and the smoke
// test asserts that each pass emits exactly the metrics the file names.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// repoRoot walks up from the working directory to the directory holding
// go.mod. The benchmark runs from the root of a checkout (go run) or
// from this package's directory (go test); both find the same root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run drainbench inside the repository")
		}
		dir = parent
	}
}

func loadSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// units maps every metric the file names to its unit; the program takes
// its units from here, so the file is their one source.
func (s *benchSpec) units() map[string]string {
	m := map[string]string{}
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, d := range list {
			m[d.Name] = d.Unit
		}
	}
	return m
}

// metricSpec looks a metric up by name in either list.
func (s *benchSpec) metricSpec(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
