package experiments

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"testing"

	"drain/internal/noc"
	"drain/internal/sim"
)

// TestFig3StallCensus re-runs quick fig3 and tallies how each deadlocked
// run's stall is explained (Stall.Why.Kind), per cell, so a change that
// moves the table shows what it moved. Every deadlock the table counts is
// a routing cycle of link VCs or a queue head awaiting a packet that does
// not come, none a packet with no move at all; the 4-VC table counts
// none.
func TestFig3StallCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs quick fig3 (about 4 s on 2 cores)")
	}
	g := newFig3Grid(Quick)
	res := make([]sim.AppResult, g.jobs())
	err := ForEachConfigContext(context.Background(), len(res), func(i int) (err error) {
		res[i], err = g.run(context.Background(), 1, i)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	total := map[noc.StallKind]int{}
	var cells []string
	for cell := range len(res) / g.runs {
		tally := map[noc.StallKind]int{}
		for _, r := range res[cell*g.runs : (cell+1)*g.runs] {
			if r.Stall != nil && r.Stall.Deadlocked {
				tally[r.Stall.Why.Kind]++
				total[r.Stall.Why.Kind]++
			}
		}
		if len(tally) == 0 {
			continue
		}
		li, wi, vi := cell%len(g.links), cell/len(g.links)%len(g.profs), cell/len(g.links)/len(g.profs)
		c := fmt.Sprintf("%d VC %s %d links: %v", g.vcs[vi], g.profs[wi].Name, g.links[li], tally)
		if g.vcs[vi] != 1 {
			t.Errorf("a %d-VC cell deadlocked: %s", g.vcs[vi], c)
		}
		cells = append(cells, c)
	}
	t.Logf("deadlocked runs by kind: %v\n%s", total, strings.Join(cells, "\n"))
	if want := map[noc.StallKind]int{noc.RoutingCycle: 18, noc.HeadOfLine: 11}; !maps.Equal(total, want) {
		t.Errorf("deadlocked runs by kind: %v, want %v", total, want)
	}
}
