package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mdTable is one pipe table of a rendered results file: the "### "
// heading above it, its header cells and its data rows.
type mdTable struct {
	title  string
	header []string
	rows   [][]string
}

// parseTables reads the pipe tables of a rendered results file.
func parseTables(md string) []mdTable {
	var tables []mdTable
	var cur *mdTable
	for _, line := range strings.Split(md, "\n") {
		switch {
		case strings.HasPrefix(line, "### "):
			tables = append(tables, mdTable{title: strings.TrimPrefix(line, "### ")})
			cur = &tables[len(tables)-1]
		case cur != nil && strings.HasPrefix(line, "|") && !strings.HasPrefix(line, "|---"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			if cur.header == nil {
				cur.header = cells
			} else {
				cur.rows = append(cur.rows, cells)
			}
		}
	}
	return tables
}

// col returns column name of row as a number.
func (t mdTable) col(row []string, name string) (float64, error) {
	for i, h := range t.header {
		if h == name {
			return strconv.ParseFloat(strings.TrimSuffix(row[i], "%"), 64)
		}
	}
	return 0, fmt.Errorf("%s: no column %q", t.title, name)
}

// cols reads the named columns of every row of every table and calls
// claim with them; it returns the claim violations and read errors, each
// naming the table and the row's first cell.
func cols(tables []mdTable, names []string, claim func(v []float64) string) []string {
	var bad []string
	for _, t := range tables {
		for _, row := range t.rows {
			v := make([]float64, len(names))
			for i, name := range names {
				var err error
				if v[i], err = t.col(row, name); err != nil {
					bad = append(bad, err.Error())
					return bad
				}
			}
			if msg := claim(v); msg != "" {
				bad = append(bad, fmt.Sprintf("%s, row %s: %s", t.title, row[0], msg))
			}
		}
	}
	if len(tables) == 0 {
		bad = append(bad, "no tables")
	}
	return bad
}

// paperClaims are the paper's comparative claims (ROADMAP A4) as checks
// over a figure's rendered tables, by figure ID.
var paperClaims = map[string]func([]mdTable) []string{
	// Fig. 5: up*/down* has higher low-load latency and lower saturation
	// throughput than ideal fully adaptive routing, at every fault count.
	"fig5": func(ts []mdTable) []string {
		return cols(ts, []string{"up*/down* low-load lat", "ideal low-load lat", "up*/down* saturation", "ideal saturation"}, func(v []float64) string {
			if v[0] < v[1] || v[2] > v[3] {
				return fmt.Sprintf("up*/down* latency %g vs ideal %g, saturation %g vs ideal %g", v[0], v[1], v[2], v[3])
			}
			return ""
		})
	},
	// Fig. 10: escape VCs yield the lowest saturation throughput at every
	// fault count, for both patterns.
	"fig10": func(ts []mdTable) []string {
		return cols(ts, []string{"escape-vc", "spin", "drain"}, func(v []float64) string {
			if v[0] >= min(v[1], v[2]) {
				return fmt.Sprintf("escape-vc saturation %g is not below spin %g and drain %g", v[0], v[1], v[2])
			}
			return ""
		})
	},
	// Fig. 11: escape VCs have the highest low-load latency, and DRAIN
	// matches SPIN (within 1 %).
	"fig11": func(ts []mdTable) []string {
		return cols(ts, []string{"escape-vc", "spin", "drain"}, func(v []float64) string {
			if v[0] <= max(v[1], v[2]) || math.Abs(v[2]-v[1]) > 0.01*v[1] {
				return fmt.Sprintf("escape-vc latency %g, spin %g, drain %g", v[0], v[1], v[2])
			}
			return ""
		})
	},
}

// TestPaperClaimsHoldOnCommittedTables checks the paper's claims on the
// committed quick tables and, where a figure is committed at full scale,
// on those too.
func TestPaperClaimsHoldOnCommittedTables(t *testing.T) {
	for fig, claim := range paperClaims {
		for _, dir := range []string{"results", "results/full"} {
			md, err := os.ReadFile(filepath.Join("..", "..", dir, fig+".md"))
			if os.IsNotExist(err) && dir != "results" {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range claim(parseTables(string(md))) {
				t.Errorf("%s/%s.md: %s", dir, fig, msg)
			}
		}
	}
}

// TestPaperClaimsCatchEditedTable: each claim rejects a copy of its
// committed quick table with one cell edited against it.
func TestPaperClaimsCatchEditedTable(t *testing.T) {
	for _, tc := range []struct{ fig, row, from, to string }{
		{"fig5", "| 4 |", "| 0.149 |", "| 0.190 |"},    // up*/down* saturation above ideal
		{"fig10", "| 12 |", "| 0.105 |", "| 0.170 |"},  // escape-vc saturation above the others
		{"fig11", "| 4 |", "| 12.944 |", "| 13.100 |"}, // drain 1.2 % off spin
		{"fig11", "| 0 |", "| 14.178 |", "| 14.100 |"}, // escape-vc latency below the others
	} {
		md, err := os.ReadFile(filepath.Join("..", "..", "results", tc.fig+".md"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(md), "\n")
		edited := false
		for i, l := range lines {
			if !edited && strings.HasPrefix(l, tc.row) && strings.Contains(l, tc.from) {
				lines[i], edited = strings.Replace(l, tc.from, tc.to, 1), true
			}
		}
		if !edited {
			t.Fatalf("%s: no row %q holds %q", tc.fig, tc.row, tc.from)
		}
		if bad := paperClaims[tc.fig](parseTables(strings.Join(lines, "\n"))); len(bad) != 1 {
			t.Errorf("%s with %s edited to %s: %d violations %q, want one", tc.fig, tc.from, tc.to, len(bad), bad)
		}
	}
}
