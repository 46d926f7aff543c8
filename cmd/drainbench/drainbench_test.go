package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"drain/internal/server"
)

// smokeSizes shrinks every workload to a couple of operations. Under
// -short (which the race run uses) the figure jobs, the only
// operations that cannot be made smaller, are cut to two in all.
func smokeSizes(name string) sizes {
	switch name {
	case "synth_low":
		return sizes{setupReps: 1, prime: 2000, window: 3000, ops: 2}
	case "synth_sat":
		return sizes{setupReps: 1, prime: 300, window: 300, ops: 2}
	case "reconfig_churn":
		return sizes{setupReps: 1, prime: 1000, window: 2000, ops: 2}
	case "coh_pagerank":
		return sizes{setupReps: 1, ops: 2, opsTarget: 30}
	case "serve_cold":
		return sizes{setupReps: 1, ops: 2, lightPairs: 4, clients: 1}
	case "serve_warm":
		return sizes{setupReps: 1, ops: 200, sweepKeys: 6, figureKeys: 4, clients: 2}
	}
	panic("no smoke sizes for " + name)
}

func metricNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func specNames(ms []specMetric) []string {
	names := make([]string, 0, len(ms))
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload, both passes, at minimal size and checks
// that nothing fails verification, that each pass emits exactly the
// metrics BENCHMARK.json names for it, that comparing the resulting file
// with itself is all ok, and that a failed operation or a changed digest
// on one side is not.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name == "serve_cold" && testing.Short() {
				continue // four more figure jobs; the untraced pass covers the path
			}
			cfg := runConfig{seed: 7, traced: traced, sz: smokeSizes(w.name)}
			rec, spans, err := runWorkload(spec, w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			want := specNames(spec.EndToEnd)
			if traced {
				want = specNames(spec.PerLayer)
				if len(spans) == 0 {
					t.Errorf("%s: traced pass recorded no spans", w.name)
				}
			}
			if got := metricNames(rec.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v emits %v, want %v", w.name, traced, got, want)
			}
			if !traced {
				for name, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.name, name, m.Value)
					}
				}
			}
			line, err := json.Marshal(rec.result())
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if got := len(keys); got != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
			}
			file.Records = append(file.Records, *rec)
		}
	}

	write := func(f resultFile) string {
		path := filepath.Join(t.TempDir(), "run.json")
		if err := writeJSONFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	compare := func(a, b string) (bool, string) {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return regressed, out.String()
	}
	path := write(file)
	regressed, out := compare(path, path)
	if regressed || strings.Contains(out, "regressed") || strings.Contains(out, "unresolved") {
		t.Errorf("a file compared with itself must be all ok:\n%s", out)
	}
	if !strings.Contains(out, "0 count metrics differ, 0 digests differ") {
		t.Errorf("a file compared with itself must repeat exactly:\n%s", out)
	}

	// Failed operations are never samples, so a change that makes slow
	// operations fail improves the medians; the failure itself must show.
	failing := file
	failing.Records = append([]record(nil), file.Records...)
	failing.Records[0].Failed++
	if regressed, out := compare(path, write(failing)); !regressed || !strings.Contains(out, "failed_ops_share") {
		t.Errorf("one more failed operation on side b must be a regression:\n%s", out)
	}
	changed := file
	changed.Records = append([]record(nil), file.Records...)
	changed.Records[0].Digest = "other"
	if regressed, out := compare(path, write(changed)); !regressed || !strings.Contains(out, "1 digests differ") {
		t.Errorf("a digest that differs for the same seed must fail the comparison:\n%s", out)
	}
}

// TestSmokeRepeats pins determinism: the same seed gives the same
// digest and the same counts, run to run.
func TestSmokeRepeats(t *testing.T) {
	w, _ := workloadByName("reconfig_churn")
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 3, traced: true, sz: smokeSizes(w.name)}
	a, _, err := runWorkload(spec, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runWorkload(spec, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts, digests := exactRepeatDiffs(&resultFile{Records: []record{*a}}, &resultFile{Records: []record{*b}})
	if len(counts) != 0 || len(digests) != 0 {
		t.Errorf("same seed, different outputs: %v %v", counts, digests)
	}
	if a.Metrics["noc.reconfigs"].Value == 0 {
		t.Errorf("reconfig_churn applied no reconfiguration")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecWithinContract checks that BENCHMARK.json names exactly the
// program's workloads and stays inside the benchmark contract's limits.
// (TestSmoke checks that the metrics it names are the ones emitted.)
func TestSpecWithinContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var named []string
	for _, w := range spec.Workloads {
		named = append(named, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or why is not one line of 1 to 200 characters", w.Name)
		}
	}
	if got := strings.Join(named, " "); got != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json names workloads %q, the program runs %q", got, workloadNames())
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	largest := 0.0
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("name %q or unit %q outside the allowed characters", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric name %s used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want above 0 and at most 0.25", m.Name, m.Bound)
			continue
		}
		largest = max(largest, *m.Bound)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound == nil || *s.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in seconds, lower is better, with the largest bound")
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "cmd/drainbench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if strings.Join(spec.Command, " ") != "go run ./cmd/drainbench" {
		t.Errorf("command = %v", spec.Command)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default sizes are for %d", spec.RunSeconds, defaultSeconds)
	}
	golden, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if len(golden[goldenKey(w.name, traced)]) != 64 {
				t.Errorf("golden.json has no SHA-256 for %s", goldenKey(w.name, traced))
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareRule pins the one rule -compare applies.
func TestCompareRule(t *testing.T) {
	bound := 0.1
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "op_us_p50", Unit: "us", Better: "lower", Bound: &bound}}}
	mk := func(vals ...float64) string {
		var f resultFile
		for i, v := range vals {
			f.Records = append(f.Records, record{Workload: "synth_low", Seed: uint64(i), Metrics: map[string]metric{"op_us_p50": {Value: v, Unit: "us"}}})
		}
		path := filepath.Join(t.TempDir(), "f.json")
		if err := writeJSONFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(100, 101, 99, 100, 102)
	for _, c := range []struct {
		name   string
		other  string
		status string
	}{
		{"same", mk(101, 100, 99, 101, 100), "ok"},
		{"slower", mk(120, 121, 119, 120, 122), "regressed"},
		{"faster", mk(80, 81, 79, 80, 82), "ok"},
		{"noisy", mk(80, 130, 100, 60, 150), "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, c.other)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(strings.SplitN(out.String(), "\n", 3)[2], c.status) || regressed != (c.status == "regressed") {
			t.Errorf("%s: want %s, got regressed=%v:\n%s", c.name, c.status, regressed, out.String())
		}
	}
}

// TestWarmKeyRedraw checks what warmSetup relies on when a key's job
// fails: drawing the key again changes that key alone, every re-encoding
// still canonicalizes to the key of the new request, and the same -seed
// redraws the same way.
func TestWarmKeyRedraw(t *testing.T) {
	cacheKey := func(body []byte) string {
		var req server.Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		c, err := req.Canonicalize()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return c.Key()
	}
	a, b := newWarmKeys(7, 3, 3), newWarmKeys(7, 3, 3)
	before := append([][]byte(nil), a.prime...)
	const redrawn = 4 // a figure key
	a.draw(redrawn, a.redraws)
	b.draw(redrawn, b.redraws)
	for i := range a.prime {
		if changed := !bytes.Equal(a.prime[i], before[i]); changed != (i == redrawn) {
			t.Errorf("key %d: changed=%v after redrawing key %d", i, changed, redrawn)
		}
		if !bytes.Equal(a.prime[i], b.prime[i]) {
			t.Errorf("key %d: the same seed redrew %s and %s", i, a.prime[i], b.prime[i])
		}
		for v, body := range a.variants[i] {
			if cacheKey(body) != cacheKey(a.prime[i]) {
				t.Errorf("key %d variant %d: %s does not canonicalize to the key of %s", i, v, body, a.prime[i])
			}
		}
	}
}
