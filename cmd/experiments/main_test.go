package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"drain/internal/experiments"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list = %d, stderr %q", code, &stderr)
	}
	all := experiments.All()
	if len(all) != 15 {
		t.Fatalf("registry holds %d experiments, want 15", len(all))
	}
	for _, e := range all {
		if !strings.Contains(stdout.String(), e.ID+" ") {
			t.Errorf("-list output does not name %s:\n%s", e.ID, &stdout)
		}
	}
}

// trailer is the `_(scale=…, took …)_` line, the one wall-clock line of a
// rendered figure (make results-check drops it the same way).
var trailer = regexp.MustCompile(`(?m)^_\(scale=.*\n`)

func TestFigureReproducesCommittedTable(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "fig6", "-scale", "quick", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, &stderr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig6.md"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "fig6.md"))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := trailer.ReplaceAll(got, nil), trailer.ReplaceAll(want, nil); !bytes.Equal(g, w) {
		t.Errorf("fig6 differs from results/fig6.md:\n got:\n%s\nwant:\n%s", g, w)
	}
	if !strings.Contains(stdout.String(), string(got)) {
		t.Errorf("stdout does not carry what -out wrote:\n%s", &stdout)
	}
}

// TestUsageErrors pins the usage exit code, removed flags included.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-rng-mode", "counter"}, // removed with the generator it selected
		{"-shards", "4"},         // removed with the engine it selected
		{"-fig", "nosuch"},
		{"-scale", "huge"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%v) explained nothing on stderr", args)
		}
	}
}
