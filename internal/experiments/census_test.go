package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
// none. By the network's own verdict every one is a routing cycle:
// FindBlockedCycle names a cycle of link VCs at the stop. The explained
// walk starts at the ejection queues and reaches that cycle exactly when
// it is named a routing cycle; a head of line ends at an awaited packet.
func TestFig3StallCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs quick fig3 (about 4 s on 2 cores)")
	}
	g := newFig3Grid(Quick)
	type run struct {
		st             *sim.Stall
		verdict, walks bool // FindBlockedCycle names a cycle; the walk touches it
	}
	res := make([]run, g.jobs())
	err := ForEachConfigContext(context.Background(), len(res), func(i int) error {
		p, prof := g.params(1, i)
		r, err := sim.Build(p)
		if err != nil {
			return err
		}
		app, err := r.RunApp(prof, 0, g.maxCycles)
		if st := app.Stall; st != nil && st.Deadlocked {
			cyc := r.Net.FindBlockedCycle()
			res[i] = run{st: st, verdict: cyc != nil, walks: slices.ContainsFunc(st.Why.Nodes, func(w noc.WaitNode) bool {
				return w.Kind == noc.LinkVC && slices.Contains(cyc, noc.VCRef{Link: w.Link, Slot: w.Slot})
			})}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	total := map[noc.StallKind]int{}
	verdicts, walks := 0, 0
	var cells []string
	for cell := range len(res) / g.runs {
		tally := map[noc.StallKind]int{}
		for _, r := range res[cell*g.runs : (cell+1)*g.runs] {
			if r.st == nil {
				continue
			}
			tally[r.st.Why.Kind]++
			total[r.st.Why.Kind]++
			if r.verdict {
				verdicts++
			}
			if r.walks {
				walks++
			}
			if r.walks != (r.st.Why.Kind == noc.RoutingCycle) {
				t.Errorf("cell %d: a %v, its walk reaching the verdict's cycle: %v", cell, r.st.Why.Kind, r.walks)
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
	t.Logf("deadlocked runs by kind: %v, %d with a verdict cycle, %d walks reaching it\n%s", total, verdicts, walks, strings.Join(cells, "\n"))
	if want := map[noc.StallKind]int{noc.RoutingCycle: 20, noc.HeadOfLine: 9}; !maps.Equal(total, want) {
		t.Errorf("deadlocked runs by kind: %v, want %v", total, want)
	}
	if verdicts != 29 || walks != 20 {
		t.Errorf("%d deadlocked runs with a verdict cycle, %d walks reaching it; want 29 and 20", verdicts, walks)
	}
}

// TestFig3GridUnderSPIN runs quick fig3's 75 one-VC runs under SPIN
// instead of no protection, for 60 000 cycles each: SPIN finds and spins
// every routing cycle, so no run stalls. (While SPIN decided under a view
// in which no Request or Forward head moved, 28 of the 75 stalled: 13
// named routing cycles and 15 heads of line.)
func TestFig3GridUnderSPIN(t *testing.T) {
	if testing.Short() {
		t.Skip("75 coherence runs of 60 000 cycles (about 10 s on 2 cores)")
	}
	g := newFig3Grid(Quick)
	stalls := make([]*sim.Stall, len(g.profs)*len(g.links)*g.runs) // the first VC count's jobs
	err := ForEachConfigContext(context.Background(), len(stalls), func(i int) error {
		p, prof := g.params(1, i)
		p.Scheme = sim.SchemeSPIN
		r, err := sim.Build(p)
		if err != nil {
			return err
		}
		res, err := r.RunApp(prof, 0, 60_000)
		stalls[i] = res.Stall
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stalls {
		if st != nil {
			p, prof := g.params(1, i)
			t.Errorf("%s, %d links removed, run %d: stall at cycle %d, %v", prof.Name, p.Faults, i%g.runs, st.Cycle, st.Why.Kind)
		}
	}
}
