package drain

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchTrajectoryParses holds BENCH_trajectory.json, the performance
// trajectory `make bench-pair` appends one record to per run, to the
// shape that target writes: both commits, the seed and pair count, the
// machine, and the `drainbench -compare` rows, each with its verdict and
// the exact-repeat summary last.
func TestBenchTrajectoryParses(t *testing.T) {
	data, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Date    string `json:"date"`
		Parent  string `json:"parent"`
		Head    string `json:"head"`
		Seed    int64  `json:"seed"`
		Pairs   int    `json:"pairs"`
		Machine struct {
			NProc int    `json:"nproc"`
			CPU   string `json:"cpu"`
			Go    string `json:"go"`
		} `json:"machine"`
		Rows []string `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no record")
	}
	verdicts := map[string]bool{"ok": true, "unresolved": true, "regressed": true, "info": true, "differs": true}
	for i, r := range recs {
		m := r.Machine
		if r.Date == "" || r.Parent == "" || r.Head == "" || r.Pairs <= 0 || m.NProc <= 0 || m.CPU == "" || !strings.HasPrefix(m.Go, "go") {
			t.Errorf("record %d: missing field in %+v", i, r)
		}
		if len(r.Rows) == 0 || !strings.HasPrefix(r.Rows[len(r.Rows)-1], "exact-repeat outputs: ") {
			t.Errorf("record %d: rows do not end with the exact-repeat summary", i)
			continue
		}
		for _, row := range r.Rows[:len(r.Rows)-1] {
			if verdict, _, _ := strings.Cut(row, " "); !verdicts[verdict] {
				t.Errorf("record %d: row without a verdict: %q", i, row)
			}
		}
	}
}
