package sim

import (
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"drain/internal/core"
	"drain/internal/noc"
	"drain/internal/routing"
	"drain/internal/topology"
	"drain/internal/traffic"
)

// validateByGraphs is ValidateFaultSchedule as it was before it moved onto
// the edge set — one topology.Graph built per event — kept as the
// reference the edge-set replay is compared with. Its one change is the
// refusal the rewrite added: a recovery must name a link of g.
func validateByGraphs(g *topology.Graph, sched []FaultEvent) error {
	cur := g
	type linkCycle struct {
		a, b  int
		cycle int64
	}
	seen := make(map[linkCycle]bool, len(sched))
	prev := int64(0)
	for i, ev := range sched {
		if ev.Cycle < 0 {
			return fmt.Errorf("fault event %d: negative cycle %d", i, ev.Cycle)
		}
		if ev.Cycle < prev {
			return fmt.Errorf("fault schedule not sorted: event %d (cycle %d) after cycle %d", i, ev.Cycle, prev)
		}
		prev = ev.Cycle
		a, b := ev.A, ev.B
		if a > b {
			a, b = b, a
		}
		k := linkCycle{a: a, b: b, cycle: ev.Cycle}
		if seen[k] {
			return fmt.Errorf("duplicate fault events for link %d-%d at cycle %d", a, b, ev.Cycle)
		}
		seen[k] = true
		var err error
		if ev.Fail {
			cur, err = cur.WithoutEdge(a, b)
		} else {
			if cur, err = cur.WithEdge(a, b); err == nil && !g.HasEdge(a, b) {
				return fmt.Errorf("fault event %d (cycle %d): no failed link %d-%d to restore", i, ev.Cycle, a, b)
			}
		}
		if err != nil {
			return fmt.Errorf("fault event %d (cycle %d): %v", i, ev.Cycle, err)
		}
		if !cur.Connected() {
			return fmt.Errorf("fault event %d disconnects the topology (link %d-%d down at cycle %d)", i, a, b, ev.Cycle)
		}
	}
	return nil
}

// sameVerdict fails unless the edge-set replay and the graph-per-event
// reference agree on sched: both accept, or both refuse in the same words.
func sameVerdict(t *testing.T, g *topology.Graph, sched []FaultEvent) bool {
	t.Helper()
	got, want := ValidateFaultSchedule(g, sched), validateByGraphs(g, sched)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("schedule %v:\n  edge-set replay:   %v\n  graph-per-event:   %v", sched, got, want)
		return false
	}
	return true
}

// TestValidateFaultScheduleMatchesGraphReplay compares the two validators
// on the fuzz seeds and on 10 000 generated schedules that mix legal
// churn with every kind of illegal event.
func TestValidateFaultScheduleMatchesGraphReplay(t *testing.T) {
	for _, seed := range fuzzScheduleSeeds {
		mesh, p, _ := fuzzSchedule(seed)
		sameVerdict(t, mesh.Graph, p.FaultSchedule)
	}
	graphs := []*topology.Graph{topology.MustMesh(3, 3).Graph, topology.MustMesh(4, 4).Graph}
	irregular, err := topology.NewRandomConnected(10, 5, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, irregular)
	accepted, refused := 0, 0
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		g := graphs[rng.IntN(len(graphs))]
		edges := g.Edges()
		var sched []FaultEvent
		var down []topology.Edge
		cycle := int64(0)
		for n := 1 + rng.IntN(12); n > 0; n-- {
			cycle += int64(rng.IntN(3)) // 0: shares the previous event's cycle
			ev := FaultEvent{Cycle: cycle, Fail: true}
			e := edges[rng.IntN(len(edges))]
			switch roll := rng.IntN(10); {
			case roll < 4: // fail some link (up or not)
			case roll < 7 && len(down) > 0: // recover a link this schedule failed
				e, ev.Fail = down[rng.IntN(len(down))], false
			case roll < 8: // recover some link (down or not)
				ev.Fail = false
			default: // any router pair, in range or just outside it
				e = topology.Edge{A: rng.IntN(g.N()+2) - 1, B: rng.IntN(g.N()+2) - 1}
				ev.Fail = rng.IntN(2) == 0
				if rng.IntN(8) == 0 {
					ev.Cycle = cycle - 3 // unsorted, or negative
				}
			}
			if ev.Fail {
				down = append(down, e)
			}
			ev.A, ev.B = e.A, e.B
			if rng.IntN(2) == 0 {
				ev.A, ev.B = e.B, e.A
			}
			sched = append(sched, ev)
		}
		if ValidateFaultSchedule(g, sched) == nil {
			accepted++
		} else {
			refused++
		}
		return sameVerdict(t, g, sched)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10000, Rand: mrand.New(mrand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if accepted < 500 || refused < 500 {
		t.Errorf("%d schedules accepted, %d refused: the generator covers one verdict only", accepted, refused)
	}
}

// churn is a generated fault schedule with the topology a replay by
// WithoutEdge/WithEdge reaches after each of its event cycles.
type churn struct {
	sched  []FaultEvent
	cycles []int64           // the distinct event cycles, ascending
	after  []*topology.Graph // after[k]: the replayed graph once cycles[k]'s events applied
}

// newChurn draws `steps` event cycles, `every` cycles apart, over g: each
// fails a link RemovableEdges allows or recovers a failed one, sometimes
// two links in one cycle, with up to three links down at once — a walk
// that keeps returning to the construction topology and leaving it again.
func newChurn(t *testing.T, g *topology.Graph, seed uint64, steps int, every int64) churn {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 17))
	var c churn
	var down []topology.Edge
	cur := g
	for k := 1; k <= steps; k++ {
		cycle := int64(k) * every
		var touched []topology.Edge
		for n := 1 + rng.IntN(4)/3; n > 0; n-- {
			var err error
			if len(down) == 3 || (len(down) > 0 && rng.IntN(2) == 0) {
				i := rng.IntN(len(down))
				e := down[i]
				if slices.Contains(touched, e) {
					continue
				}
				down = slices.Delete(down, i, i+1)
				c.sched = append(c.sched, FaultEvent{Cycle: cycle, A: e.B, B: e.A}) // reversed endpoints
				cur, err = cur.WithEdge(e.A, e.B)
				touched = append(touched, e)
			} else {
				removable := topology.RemovableEdges(cur)
				e := removable[rng.IntN(len(removable))]
				if slices.Contains(touched, e) {
					continue
				}
				down = append(down, e)
				c.sched = append(c.sched, FaultEvent{Cycle: cycle, A: e.A, B: e.B, Fail: true})
				cur, err = cur.WithoutEdge(e.A, e.B)
				touched = append(touched, e)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		c.cycles = append(c.cycles, cycle)
		c.after = append(c.after, cur)
	}
	return c
}

// churnTopologies are the two graphs the reconfiguration differentials
// run on: the 8x8 mesh and a random irregular graph.
func churnTopologies(t *testing.T) map[string]*topology.Graph {
	t.Helper()
	irregular, err := topology.NewRandomConnected(20, 14, rand.New(rand.NewPCG(11, 11)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Graph{"8x8": topology.MustMesh(8, 8).Graph, "irregular": irregular}
}

// TestRestoreAndFailureMatchRemappedFromScratch drives churn schedules
// through a DRAIN runner and, after every event cycle, compares what
// reconfigure installed with what a rebuild from nothing gives: the
// network's table against routing.NewTableRemapped over the replayed
// graph for every kind, phase and pair (XY aside: nothing routes with it
// under a schedule, and only a table built with a mesh has it), Active()
// against the replayed graph, the controller's drain path against a fresh
// controller's. A full restore must also be the construction-time graph
// and table themselves, not copies.
func TestRestoreAndFailureMatchRemappedFromScratch(t *testing.T) {
	for name, g := range churnTopologies(t) {
		c := newChurn(t, g, 5, 40, 20)
		r, err := BuildOn(g, nil, Params{Scheme: SchemeDRAIN, Epoch: 64, Seed: 3, FaultSchedule: c.sched})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built := r.Net.Table()
		pat := traffic.UniformRandom{N: g.N()}
		restores := 0
		for k, cycle := range c.cycles {
			// Iteration `cycle` applies the events; run through it.
			if _, err := r.RunSynthetic(pat, 0.1, 0, cycle+1-r.Net.Cycle()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := c.after[k]
			if !reflect.DeepEqual(r.Active(), want) {
				t.Fatalf("%s cycle %d: Active() is not the replayed graph", name, cycle)
			}
			if want.NumLinks() == g.NumLinks() {
				restores++
				if r.Active() != g || r.Net.Table() != built {
					t.Errorf("%s cycle %d: a full restore did not reinstall the construction-time graph and table", name, cycle)
				}
			}
			fresh, err := routing.NewTableRemapped(want, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, fmt.Sprintf("%s cycle %d", name, cycle), r.Net.Table(), fresh, g.N())
			net, err := noc.New(noc.Config{Graph: want})
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := core.New(net, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Drain.Path(), ctl.Path()) {
				t.Fatalf("%s cycle %d: drain path differs from a fresh controller's over the replayed graph", name, cycle)
			}
		}
		if got := r.Net.Counters.Reconfigs; got != int64(len(c.cycles)) {
			t.Errorf("%s: %d reconfigurations for %d event cycles", name, got, len(c.cycles))
		}
		if restores < 3 {
			t.Errorf("%s: the schedule returned to the construction topology %d times; the test needs repeats", name, restores)
		}
	}
}

// requireSameTable compares two tables cell by cell: every kind and
// phase, every pair, nil where empty, same candidates in the same order.
func requireSameTable(t *testing.T, what string, got, want *routing.Table, routers int) {
	t.Helper()
	for at := 0; at < routers; at++ {
		for dst := 0; dst < routers; dst++ {
			for i, pair := range [][2][]routing.Candidate{
				{got.Candidates(routing.AdaptiveMinimal, at, dst, false), want.Candidates(routing.AdaptiveMinimal, at, dst, false)},
				{got.Candidates(routing.UpDown, at, dst, false), want.Candidates(routing.UpDown, at, dst, false)},
				{got.Candidates(routing.UpDown, at, dst, true), want.Candidates(routing.UpDown, at, dst, true)},
				{got.AllOutputs(at, dst), want.AllOutputs(at, dst)},
			} {
				if !slices.Equal(pair[0], pair[1]) || (pair[0] == nil) != (pair[1] == nil) {
					t.Fatalf("%s: list %d for (%d,%d) = %v, from scratch %v", what, i, at, dst, pair[0], pair[1])
				}
			}
			if got.Dist(at, dst) != want.Dist(at, dst) {
				t.Fatalf("%s: Dist(%d,%d) = %d, from scratch %d", what, at, dst, got.Dist(at, dst), want.Dist(at, dst))
			}
		}
	}
}

// TestChurnRunEqualsLoopRemappedOnEveryEvent runs one churn schedule two
// ways, window by window (each window ends where the next event cycle
// begins): a runner that owns the schedule, and a runner with none whose
// topology the test edits by hand before each window, the way the loop
// read before restores were recognized (and cmd/drainbench's traced pass
// still reads): WithoutEdge/WithEdge per event, a new remapped table and
// a new drain path for every event cycle. Results and reconfiguration
// reports must agree in their marshalled bytes.
func TestChurnRunEqualsLoopRemappedOnEveryEvent(t *testing.T) {
	for name, g := range churnTopologies(t) {
		c := newChurn(t, g, 9, 30, 150)
		p := Params{Scheme: SchemeDRAIN, Epoch: 256, Seed: 21}
		byHand, err := BuildOn(g, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		p.FaultSchedule = c.sched
		scheduled, err := BuildOn(g, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		pat := traffic.UniformRandom{N: g.N()}
		active, next := g, 0
		bounds := append(slices.Clone(c.cycles), c.cycles[len(c.cycles)-1]+150)
		for k, end := range bounds {
			window := end - scheduled.Net.Cycle()
			want, err := scheduled.RunSynthetic(pat, 0.15, 0, window)
			if err != nil {
				t.Fatal(err)
			}
			if k > 0 { // the previous bound's events are due on this window's first cycle
				for ; next < len(c.sched) && c.sched[next].Cycle <= byHand.Net.Cycle(); next++ {
					if ev := c.sched[next]; ev.Fail {
						active, err = active.WithoutEdge(ev.A, ev.B)
					} else {
						active, err = active.WithEdge(ev.A, ev.B)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				tab, err := routing.NewTableRemapped(active, g, 0)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := byHand.Net.Reconfigure(active, tab)
				if err != nil {
					t.Fatal(err)
				}
				byHand.FaultReports = append(byHand.FaultReports, rep)
				if err := byHand.Drain.Reconfigure(active); err != nil {
					t.Fatal(err)
				}
			}
			got, err := byHand.RunSynthetic(pat, 0.15, 0, window)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
				t.Fatalf("%s window %d (to cycle %d):\n by hand:   %s\n scheduled: %s", name, k, end, g, w)
			}
		}
		if g, w := mustJSON(t, byHand.FaultReports), mustJSON(t, scheduled.FaultReports); g != w || len(scheduled.FaultReports) != len(c.cycles) {
			t.Errorf("%s: reconfiguration reports differ:\n by hand:   %s\n scheduled: %s", name, g, w)
		}
		if c := scheduled.Net.Counters; c.FaultDrops == 0 || c.FaultReroutes == 0 || c.Drains == 0 {
			t.Errorf("%s: no transfer cut, no buffer evacuated or no drain (%d, %d, %d): the comparison shows little", name, c.FaultDrops, c.FaultReroutes, c.Drains)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
