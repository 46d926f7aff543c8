package sim

import (
	"fmt"
	"strconv"
	"strings"

	"drain/internal/routing"
	"drain/internal/topology"
)

// FaultEvent is one scheduled live topology change: at Cycle the
// bidirectional link A-B fails (Fail true) or recovers (Fail false).
// Events are applied at cycle boundaries — an event at cycle C takes
// effect before the step from C to C+1 — identically in both engines.
// A fault schedule changes what the simulation computes, so FaultEvent
// is JSON-visible and part of the content address cached results are
// keyed by.
type FaultEvent struct {
	Cycle int64 `json:"cycle"`
	A     int   `json:"a"`
	B     int   `json:"b"`
	Fail  bool  `json:"fail"`
}

// String formats the event in ParseFaultSchedule's syntax.
func (e FaultEvent) String() string {
	action := "recover"
	if e.Fail {
		action = "fail"
	}
	return fmt.Sprintf("%d:%s:%d-%d", e.Cycle, action, e.A, e.B)
}

// ParseFaultSchedule parses the -fault-schedule CLI syntax: a comma-
// separated list of cycle:action:a-b events, where action is "fail" or
// "recover" and a-b names a bidirectional link by its endpoint routers.
// Example: "1000:fail:2-3,3000:recover:2-3". An empty string is an
// empty schedule. The result is syntactically parsed only; validate it
// against a concrete topology with ValidateFaultSchedule.
func ParseFaultSchedule(s string) ([]FaultEvent, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []FaultEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		parts := strings.Split(item, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("sim: fault event %q: want cycle:fail|recover:a-b", item)
		}
		cyc, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sim: fault event %q: bad cycle: %v", item, err)
		}
		var fail bool
		switch parts[1] {
		case "fail":
			fail = true
		case "recover":
			fail = false
		default:
			return nil, fmt.Errorf("sim: fault event %q: action must be \"fail\" or \"recover\"", item)
		}
		a, b, ok := strings.Cut(parts[2], "-")
		if !ok {
			return nil, fmt.Errorf("sim: fault event %q: link must be a-b", item)
		}
		av, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("sim: fault event %q: bad router %q", item, a)
		}
		bv, err := strconv.Atoi(b)
		if err != nil {
			return nil, fmt.Errorf("sim: fault event %q: bad router %q", item, b)
		}
		out = append(out, FaultEvent{Cycle: cyc, A: av, B: bv, Fail: fail})
	}
	return out, nil
}

// ValidateFaultSchedule checks a schedule against the topology it will
// run on: cycles must be non-decreasing and non-negative, the same link
// may not appear twice at the same cycle, every failure must target a
// currently-up link and every recovery a currently-down link of g, and
// the topology must stay connected after every event (the simulator has
// no notion of an unreachable router, and the drain path needs a
// connected graph). The check replays the whole sequence, so it catches
// exactly the states a run would reach. The error text is safe for
// clients.
//
// The replay runs over g's own edge set — a down mark per edge and, after
// each failure, one connectivity walk that skips down links (a recovery
// cannot disconnect anything) — so it builds no graph and its allocations
// do not grow with the schedule.
func ValidateFaultSchedule(g *topology.Graph, sched []FaultEvent) error {
	// Per bidirectional edge (Edges() index = link ID / 2, see
	// topology.Graph.Reverse): whether it is down, and the cycle of the
	// last event that named it. Only an edge of g can have passed an
	// earlier event, so that cycle is the whole duplicate check.
	down := make([]bool, len(g.Edges()))
	lastCycle := make([]int64, len(g.Edges()))
	for i := range lastCycle {
		lastCycle[i] = -1
	}
	seen := make([]bool, g.N())
	stack := make([]int, 0, g.N())
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
		id, isEdge := g.LinkID(a, b)
		e := id / 2
		if isEdge {
			if lastCycle[e] == ev.Cycle {
				return fmt.Errorf("duplicate fault events for link %d-%d at cycle %d", a, b, ev.Cycle)
			}
			lastCycle[e] = ev.Cycle
		}
		switch {
		case ev.Fail && (!isEdge || down[e]):
			return fmt.Errorf("fault event %d (cycle %d): topology: no edge %d-%d to remove", i, ev.Cycle, a, b)
		case !ev.Fail && isEdge && !down[e]:
			return fmt.Errorf("fault event %d (cycle %d): topology: edge %d-%d already present", i, ev.Cycle, a, b)
		case !ev.Fail && !isEdge:
			// Restoring a link the topology never had would grow it past
			// the network's link-ID space.
			switch {
			case a == b:
				return fmt.Errorf("fault event %d (cycle %d): topology: self-loop at router %d", i, ev.Cycle, a)
			case a < 0 || b >= g.N():
				return fmt.Errorf("fault event %d (cycle %d): topology: edge %d-%d out of range [0,%d)", i, ev.Cycle, a, b, g.N())
			}
			return fmt.Errorf("fault event %d (cycle %d): no failed link %d-%d to restore", i, ev.Cycle, a, b)
		}
		down[e] = ev.Fail
		if ev.Fail && !connectedWithout(g, down, seen, stack) {
			return fmt.Errorf("fault event %d disconnects the topology (link %d-%d down at cycle %d)", i, a, b, ev.Cycle)
		}
	}
	return nil
}

// connectedWithout reports whether every router of g reaches router 0
// over links whose edge is not marked down. seen (length N) and stack
// (capacity N) are the caller's scratch.
func connectedWithout(g *topology.Graph, down, seen []bool, stack []int) bool {
	clear(seen)
	seen[0] = true
	stack = append(stack[:0], 0)
	count := 1
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := g.OutLinks(r)
		for i, nb := range g.Neighbors(r) {
			if !seen[nb] && !down[out[i]/2] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == g.N()
}

// applyDueFaults applies every scheduled fault event due at or before
// the network's current cycle, then reconfigures routing, the network
// and the drain path once over the resulting topology (batching events
// that share a cycle into a single reconfiguration). The run loops call
// it at the top of each iteration — before injection and Step — so an
// event at cycle C takes effect on the C→C+1 cycle boundary, between
// Steps.
func (r *Runner) applyDueFaults() error {
	sched := r.Params.FaultSchedule
	if r.faultIdx >= len(sched) || sched[r.faultIdx].Cycle > r.Net.Cycle() {
		return nil
	}
	if r.down == nil {
		r.down = make([]bool, len(r.Graph.Edges()))
	}
	now := r.Net.Cycle()
	for r.faultIdx < len(sched) && sched[r.faultIdx].Cycle <= now {
		ev := sched[r.faultIdx]
		id, ok := r.Graph.LinkID(ev.A, ev.B)
		if !ok || r.down[id/2] == ev.Fail {
			// Unreachable after BuildOn's ValidateFaultSchedule.
			return fmt.Errorf("sim: fault event %v does not apply to the topology at cycle %d", ev, now)
		}
		r.down[id/2] = ev.Fail
		if ev.Fail {
			r.numDown++
		} else {
			r.numDown--
		}
		r.faultIdx++
	}
	return r.reconfigure()
}

// reconfigure swaps the topology the scheduled events have left into the
// network and the DRAIN controller. With every link back up that is the
// construction-time graph, table and drain path themselves — what a
// rebuild over the restored edge set would reproduce cell for cell
// (topology.Graph.WithEdge's round trip; NewTableRemapped over the full
// graph is NewTable's table). Otherwise the surviving edges become one
// new graph, however many events the cycle batched, and the routing table
// is rebuilt over it with candidates remapped into the full graph's
// link-ID space; each candidate kind is built at its first read.
func (r *Runner) reconfigure() error {
	r.active = r.Graph
	tab := r.fullTab
	if r.numDown > 0 {
		edges := make([]topology.Edge, 0, len(r.down)-r.numDown)
		for i, e := range r.Graph.Edges() {
			if !r.down[i] {
				edges = append(edges, e)
			}
		}
		var err error
		if r.active, err = topology.New(r.Graph.N(), edges); err != nil {
			return fmt.Errorf("sim: reconfiguration: %v", err)
		}
		if tab, err = routing.NewTableRemapped(r.active, r.Graph, 0); err != nil {
			return fmt.Errorf("sim: reconfiguration routing rebuild: %v", err)
		}
	}
	rep, err := r.Net.Reconfigure(r.active, tab)
	if err != nil {
		return fmt.Errorf("sim: reconfiguration: %v", err)
	}
	r.FaultReports = append(r.FaultReports, rep)
	if r.Drain != nil {
		return r.Drain.Reconfigure(r.active)
	}
	return nil
}

// Active returns the currently fault-free subgraph of the runner's
// topology (Graph itself until the first scheduled fault fires, and again
// whenever every link is back up).
func (r *Runner) Active() *topology.Graph { return r.active }
