package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"drain/internal/sim"
	"drain/internal/traffic"
	"drain/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"headline", "disc", "reconfig",
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok {
			t.Errorf("experiment %s not registered", id)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", id)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d entries, want %d", got, len(want))
	}
	// All() sorted by ID.
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Error("All() not sorted")
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{
		ID:      "figX",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"note"},
	}
	md := tb.Markdown()
	for _, frag := range []string{"### figX", "| a | b |", "| 1 | 2 |", "> note"} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, md)
		}
	}
}

// Cheap experiments run fully in tests; the expensive ones are covered
// by the benchmark harness.
func TestCheapExperiments(t *testing.T) {
	for _, id := range []string{"fig6", "fig8", "fig9"} {
		e, _ := ByID(id)
		tables, err := e.Run(context.Background(), Quick, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
				t.Errorf("%s: empty table %q", id, tb.Title)
			}
			for _, r := range tb.Rows {
				if len(r) != len(tb.Columns) {
					t.Errorf("%s: row width %d != %d columns", id, len(r), len(tb.Columns))
				}
			}
		}
	}
}

func TestFig4WasteDominates(t *testing.T) {
	e, _ := ByID("fig4")
	tables, err := e.Run(context.Background(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		// Columns: workload, active, wasted, wasted share (e.g. "91.1%").
		share := row[3]
		if len(share) < 2 || share[len(share)-1] != '%' {
			t.Fatalf("bad share cell %q", share)
		}
		var v float64
		if _, err := fmtSscan(share[:len(share)-1], &v); err != nil {
			t.Fatal(err)
		}
		if v < 50 {
			t.Errorf("%s wastes only %s; paper expects waste to dominate", row[0], share)
		}
	}
}

// fmtSscan parses a float cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestFig9MOESIExtension(t *testing.T) {
	e, _ := ByID("fig9")
	tables, err := e.Run(context.Background(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig9 returns %d tables, want 2 (MESI + MOESI)", len(tables))
	}
	// DRAIN's normalized area under MOESI must be below its MESI value.
	mesiDrain := tables[0].Rows[2][2]
	moesiDrain := tables[1].Rows[2][1]
	if !(moesiDrain < mesiDrain) {
		t.Errorf("MOESI norm %s not below MESI norm %s", moesiDrain, mesiDrain)
	}
}

func TestFig9Ratios(t *testing.T) {
	e, _ := ByID("fig9")
	tables, err := e.Run(context.Background(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(rows))
	}
	// Normalized area column: escape = 1.000, drain smallest.
	if rows[0][2] != "1.000" {
		t.Errorf("escape norm area = %s", rows[0][2])
	}
	if !(rows[2][2] < rows[1][2] && rows[1][2] < rows[0][2]) {
		t.Errorf("area ordering wrong: %v", rows)
	}
}

// TestFig8Walkthrough also counts fig8's runs: one up to the end of the
// first drain window (10 cycles: the 8-cycle epoch, then one cycle each
// of pre-drain and drain window), and a 2000-cycle delivery run.
func TestFig8Walkthrough(t *testing.T) {
	e, _ := ByID("fig8")
	var tot sim.Totals
	tables, err := e.Run(sim.WithTotals(context.Background(), &tot), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if runs, cycles := tot.Runs.Load(), tot.Cycles.Load(); runs != 2 || cycles != 10+2000 {
		t.Errorf("fig8 credited %d runs of %d cycles in all, want 2 and 10+2000", runs, cycles)
	}
	tb := tables[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("walkthrough rows = %d, want 8 packets", len(tb.Rows))
	}
	// Every planted packet must have been delivered eventually.
	foundDelivery := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "8 of 8") {
			foundDelivery = true
		}
	}
	if !foundDelivery {
		t.Errorf("walkthrough did not deliver all packets: %v", tb.Notes)
	}
}

// TestFig8StopsAtFirstDrain: on fig8's planted deadlock a probe sees the
// freeze begin, then the window end having forced packets along the
// drain path, and a stop there ends the run at that cycle.
func TestFig8StopsAtFirstDrain(t *testing.T) {
	r, _, err := fig8Planted()
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.Event
	r.Probe = &sim.Probe{OnEvent: func(e sim.Event) bool {
		if e.Kind != sim.EventEject {
			events = append(events, e)
		}
		return e.Kind == sim.EventDrainEnd
	}}
	if _, err := r.RunSynthetic(traffic.UniformRandom{N: r.Graph.N()}, 0, 0, 1000); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, string(e.Kind))
	}
	if got := strings.Join(kinds, " "); got != "drain_start drain_end run_end" {
		t.Fatalf("events %q, want drain_start drain_end run_end", got)
	}
	start, end, stop := events[0], events[1], events[2]
	if end.Moved <= 0 || !(start.Cycle < end.Cycle && end.Cycle == stop.Cycle && stop.Cycle == r.Net.Cycle()) {
		t.Errorf("drain start at %d, end at %d moving %d packets, run stopped at %d (clock %d); want moved > 0 and the stop at the end",
			start.Cycle, end.Cycle, end.Moved, stop.Cycle, r.Net.Cycle())
	}
}

// TestRunAppFailsIncompleteRun: a run cut off by maxCycles is an error
// naming the configuration, not a result a table could print (fig4's
// own runs, which complete, are TestFig4WasteDominates').
func TestRunAppFailsIncompleteRun(t *testing.T) {
	p := sim.Params{Width: 4, Height: 4, Scheme: sim.SchemeEscapeVC, Classes: 3, InjectCap: 16, Seed: 1}
	_, _, err := runApp(context.Background(), p, workload.MustGet("canneal"), 300, 1000)
	if err == nil || !strings.Contains(err.Error(), "escape-vc (VN3,VC2)/canneal with 0 faults did not complete in 1000 cycles") {
		t.Fatalf("err = %v, want a did-not-complete error", err)
	}
}
