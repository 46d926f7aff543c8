package lint

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe parses expectation comments in fixtures:
//
//	// want `regex`        — a finding on this line must match regex
//	// want:-1 `regex`     — a finding one line above must match (for
//	                         findings that anchor on a comment line)
var wantRe = regexp.MustCompile("// want(:(-?[0-9]+))? `([^`]+)`")

type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// TestFixtures runs each analyzer over its testdata package and checks
// the findings against the fixture's want comments, both directions:
// every want must be matched and every finding must be wanted.
func TestFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := "testdata/src/" + a.Name
			pkgs, err := Load(dir, []string{"./a"})
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			if len(pkgs) == 0 {
				t.Fatal("fixture loaded no packages")
			}
			cfg := DefaultConfig()
			// Fixtures are not in the production deterministic set; put
			// them in scope explicitly. Hot roots come from //drain:hotpath,
			// so hotalloc self-roots; the pooled-type config must point at
			// the fixture's declaration instead.
			cfg.DeterministicPkgs = []string{dir + "/a"}
			if a.Name == "hotalloc" {
				cfg.PooledTypes = []string{"a.token"}
			}
			findings := a.Run(cfg, pkgs)
			SortFindings(findings)

			wants := collectWants(t, pkgs)
			for _, f := range findings {
				msg := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
				ok := false
				for _, w := range wants {
					if w.line == f.Line && !w.matched && w.re.MatchString(msg) {
						w.matched = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected finding at %s:%d: %s", f.File, f.Line, msg)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("want at line %d not reported: %s", w.line, w.re)
				}
			}
		})
	}
}

// collectWants scans the fixture package's comments for expectations.
func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, p := range pkgs {
		if !p.Target {
			continue
		}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					line := p.Fset.Position(c.Pos()).Line
					if m[2] != "" {
						off, err := strconv.Atoi(m[2])
						if err != nil {
							t.Fatalf("bad want offset %q", m[2])
						}
						line += off
					}
					re, err := regexp.Compile(m[3])
					if err != nil {
						t.Fatalf("bad want regex %q: %v", m[3], err)
					}
					wants = append(wants, &want{line: line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments")
	}
	return wants
}

// TestFindingString pins the canonical diagnostic format the Makefile
// and CI grep for.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/noc/step.go", Line: 42, Analyzer: "hotalloc", Message: "boom"}
	if got, wantStr := f.String(), "internal/noc/step.go:42: [hotalloc] boom"; got != wantStr {
		t.Fatalf("String() = %q, want %q", got, wantStr)
	}
}

// TestDirectiveValidation: unknown directives are findings, so a typo
// can never silently disable a check.
func TestDirectiveValidation(t *testing.T) {
	pkgs, err := Load("testdata/src/ctxflow", []string{"./a"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Analyze(DefaultConfig(), pkgs) {
		if f.Analyzer == "directive" && strings.Contains(f.Message, "requires a reason") {
			return
		}
	}
	t.Error("bare //drain:coldpath directive was not reported")
}
