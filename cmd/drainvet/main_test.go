package main

import (
	"bytes"
	"strings"
	"testing"
)

const fixtureDir = "../../internal/lint/testdata/src/nondet"

func TestRunReportsFixtureFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixtureDir, "-detpkgs", "a", "./a"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[nondet] time.Now is nondeterministic") {
		t.Errorf("missing time.Now diagnostic in output:\n%s", out)
	}
	if !strings.Contains(out, "a.go:") {
		t.Errorf("diagnostics not in file:line form:\n%s", out)
	}
}

func TestRunCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// stats is outside the deterministic set; nothing should fire.
	code := run([]string{"-C", "../..", "./internal/stats"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed diagnostics:\n%s", stdout.String())
	}
}

// -C and -detpkgs are the whole flag set; the report format, analyzer
// toggles and root override that once existed are usage errors.
func TestFlagSurface(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-h"}, &stdout, &stderr)
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "-") {
			flags = append(flags, f[0])
		}
	}
	if got := strings.Join(flags, " "); code != 2 || got != "-C -detpkgs" {
		t.Errorf("-h: exit %d listing %q, want 2 and \"-C -detpkgs\":\n%s", code, got, stderr.String())
	}
	for _, arg := range []string{"-json", "-nondet=false", "-hotroots=x"} {
		if code := run([]string{arg, "./internal/stats"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit code = %d, want 2", arg, code)
		}
	}
}
