package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// pairKey identifies what two result files are paired by.
type pairKey struct{ workload, metric string }

// valuesByPair groups a file's metric values over its runs.
func valuesByPair(f *resultFile) map[pairKey][]float64 {
	out := map[pairKey][]float64{}
	for _, r := range f.Records {
		for name, m := range r.Metrics {
			k := pairKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// compareFiles pairs two result files by (workload, metric) and applies
// one rule to every pair, with the bound BENCHMARK.json records for the
// metric: b's median worse than a's by more than the bound is
// "regressed"; either side's own spread (q3-q1 over its median) wider
// than the bound is "unresolved" — the runs cannot tell; anything else
// is "ok". Metrics without a bound (the per-layer ones) are listed with
// their ratio as "info". Every ratio is b over a, with a as the base.
// Failed operations are not samples, so each workload also gets a
// failed_ops_share row (failed over attempted, all runs), whose bound is
// "any increase". Last come the exact-repeat outputs — digests and
// count metrics of runs with the same workload, seed and pass — which
// must be identical. The result is true when some row regressed or some
// exact-repeat output differs.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	va, vb := valuesByPair(a), valuesByPair(b)
	var keys []pairKey
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	rank := map[string]int{}
	for i, wl := range workloads {
		rank[wl.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return rank[keys[i].workload] < rank[keys[j].workload]
		}
		return keys[i].metric < keys[j].metric
	})

	fmt.Fprintf(w, "a = %s (%s, dirty=%v)\nb = %s (%s, dirty=%v)\n", pathA, a.Env.GitSHA, a.Env.Dirty, pathB, b.Env.GitSHA, b.Env.Dirty)
	regressed := false
	for _, k := range keys {
		m, known := spec.metricSpec(k.metric)
		a1, a2, a3 := quartiles(va[k])
		b1, b2, b3 := quartiles(vb[k])
		status := "info"
		if known && m.Bound != nil {
			worse := ratio(b2-a2, a2)
			if m.Better == "higher" {
				worse = -worse
			}
			switch {
			case ratio(a3-a1, a2) > *m.Bound || ratio(b3-b1, b2) > *m.Bound:
				status = "unresolved"
			case worse > *m.Bound:
				status = "regressed"
				regressed = true
			default:
				status = "ok"
			}
		}
		fmt.Fprintf(w, "%-10s %-15s %-32s b/a %8.4f  base a = %.6g %s [%.6g, %.6g] n=%d, b = %.6g [%.6g, %.6g] n=%d\n",
			status, k.workload, k.metric, ratio(b2, a2), a2, m.Unit, a1, a3, len(va[k]), b2, b1, b3, len(vb[k]))
	}

	fa, fb := failedShares(a), failedShares(b)
	for _, wl := range workloads {
		sa, inA := fa[wl.name]
		sb, inB := fb[wl.name]
		if !inA || !inB {
			continue
		}
		status := "ok"
		if sb.share() > sa.share() {
			status = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-10s %-15s %-32s base a = %d failed of %d attempted, b = %d of %d\n",
			status, wl.name, "failed_ops_share", sa.failed, sa.attempted, sb.failed, sb.attempted)
	}

	counts, digests := exactRepeatDiffs(a, b)
	for _, d := range append(digests, counts...) {
		fmt.Fprintf(w, "differs    %s\n", d)
	}
	fmt.Fprintf(w, "exact-repeat outputs: %d count metrics differ, %d digests differ\n", len(counts), len(digests))
	return regressed || len(counts) > 0 || len(digests) > 0, nil
}

// opTally sums a workload's operations over a file's runs.
type opTally struct{ failed, attempted int }

func (t opTally) share() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

func failedShares(f *resultFile) map[string]opTally {
	out := map[string]opTally{}
	for _, r := range f.Records {
		t := out[r.Workload]
		t.failed += r.Failed
		t.attempted += r.Attempted
		out[r.Workload] = t
	}
	return out
}

// exactRepeatDiffs pairs the two files' records by (workload, seed,
// pass) and names the count-unit metrics and the digests that differ.
func exactRepeatDiffs(a, b *resultFile) (counts, digests []string) {
	type runKey struct {
		workload string
		seed     uint64
		traced   bool
	}
	byRun := map[runKey]*record{}
	for i := range a.Records {
		r := &a.Records[i]
		byRun[runKey{r.Workload, r.Seed, r.Traced}] = r
	}
	for i := range b.Records {
		rb := &b.Records[i]
		ra, ok := byRun[runKey{rb.Workload, rb.Seed, rb.Traced}]
		if !ok {
			continue
		}
		run := fmt.Sprintf("%s seed %d traced=%v", rb.Workload, rb.Seed, rb.Traced)
		if ra.Digest != rb.Digest {
			digests = append(digests, run+" digest")
		}
		for name, mb := range rb.Metrics {
			if ma, ok := ra.Metrics[name]; ok && mb.Unit == "count" && ma.Value != mb.Value {
				counts = append(counts, fmt.Sprintf("%s %s: a = %v, b = %v", run, name, ma.Value, mb.Value))
			}
		}
	}
	sort.Strings(counts)
	return counts, digests
}
